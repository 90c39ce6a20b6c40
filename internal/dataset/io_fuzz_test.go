package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadRelationCSV holds the CSV loader to its two promises on
// arbitrary bytes: Read never panics, and whatever it accepts survives
// Write and a second Read unchanged, bit for bit.
func FuzzReadRelationCSV(f *testing.F) {
	for _, seed := range []string{
		"",
		"# x,y,l,b\n\n1,2,3,4\n",
		"  # indented comment\n\t\n0,10,5,5\r\n",
		"0,0,0,0\n-0,-0,0,0\n+0,+0,-0,-0\n",
		"1e308,1e308,1e308,1e308\n-1e308,1e-308,4.9e-324,0\n",
		"NaN,0,1,1\n",
		"Inf,0,1,1\n0,-Inf,1,1\n0,0,+Inf,1\n",
		"1,2,3\n",
		"1,2,3,4,5\n",
		"1, 2 ,3,4\n",
		"0x1p-2,1_0,3,4\n",
		"1,2,-3,4\n",
		"1,2,3,4\n" + strings.Repeat("9", 1<<20) + ",0,0,0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rects, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, rects); err != nil {
			t.Fatalf("Write of accepted rectangles: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of Write's output: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(rects) {
			t.Fatalf("round trip kept %d of %d rectangles", len(back), len(rects))
		}
		for i, r := range rects {
			b := back[i]
			for j, pair := range [4][2]float64{{r.X, b.X}, {r.Y, b.Y}, {r.L, b.L}, {r.B, b.B}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("rectangle %d field %d: %v came back as %v", i, j+1, pair[0], pair[1])
				}
			}
		}
	})
}
