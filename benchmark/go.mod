module mwsjoin/benchmark

go 1.22

require mwsjoin v0.0.0

replace mwsjoin => ../
