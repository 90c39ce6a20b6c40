package profile

import (
	"mwsjoin/internal/mapreduce"
	"mwsjoin/internal/metrics"
	"mwsjoin/internal/spatial"
)

// ReducerPairsHistogram is the registry histogram Publish observes every
// reducer's intermediate pair count into, for every job that ran — the
// distribution behind the bench harness's skew quantiles.
const ReducerPairsHistogram = "mapreduce_reducer_pairs"

// Publish adds one finished execution's Stats to a registry: the
// spatial_* run totals, the mapreduce_* totals and distributions of every
// job that ran, the chain_* recovery counters and the dfs_* traffic. It
// is the registry's only writer of engine series, called once per
// successful run by whoever owns the registry; a failed run has no Stats
// and publishes nothing. A nil registry or nil Stats publishes nothing.
//
// Rounds resumed from a checkpoint ran no job, so they count toward the
// spatial_* totals (which describe the run's result) but not toward the
// mapreduce_* ones; they are the prefix Chain.ResumedJobs of Rounds.
// spatial_cell_candidates observes the input of every non-empty reducer
// of the join rounds that ran: each cascade round, All-Replicate's round
// and C-Rep's round two.
func Publish(reg *metrics.Registry, st *spatial.Stats) {
	if reg == nil || st == nil {
		return
	}
	add := func(name string, v int64) { reg.Counter(name).Add(v) }
	add("spatial_runs_total", 1)
	add("spatial_output_tuples_total", st.OutputTuples)
	add("spatial_intermediate_pairs_total", st.IntermediatePairs())
	add("spatial_rectangles_replicated_total", st.RectanglesReplicated)
	add("spatial_rectangle_copies_total", st.RectanglesAfterReplication)
	add("spatial_rounds_total", int64(len(st.Rounds)))
	if len(st.Rounds) > 0 {
		reg.Gauge("spatial_partition_cells").Set(int64(len(st.Rounds[0].PairsPerReducer)))
	}

	resumed := 0
	if c := st.Chain; c != nil {
		resumed = int(min(max(c.ResumedJobs, 0), int64(len(st.Rounds))))
		add("chain_jobs_total", c.Jobs)
		add("chain_jobs_run_total", c.JobsRun)
		add("chain_jobs_resumed_total", c.ResumedJobs)
		add("chain_checkpoint_bytes_written_total", c.CheckpointBytesWritten)
		add("chain_checkpoint_bytes_read_total", c.CheckpointBytesRead)
	}
	// C-Rep's first round marks rectangles; it joins nothing.
	marks := st.Method == spatial.ControlledReplicate || st.Method == spatial.ControlledReplicateLimit
	for i := resumed; i < len(st.Rounds); i++ {
		publishJob(add, reg, st.Rounds[i])
		if marks && i == 0 {
			continue
		}
		for _, n := range st.Rounds[i].PairsPerReducer {
			if n > 0 {
				reg.Histogram("spatial_cell_candidates").Observe(n)
			}
		}
	}

	add("dfs_bytes_written_total", st.DFS.BytesWritten)
	add("dfs_bytes_read_total", st.DFS.BytesRead)
	add("dfs_records_written_total", st.DFS.RecordsWritten)
	add("dfs_records_read_total", st.DFS.RecordsRead)
}

// publishJob adds one map-reduce job that ran: its Stats totals, every
// reducer's pair count, and its max/mean reducer imbalance ×1000, so the
// log buckets resolve fractions.
func publishJob(add func(string, int64), reg *metrics.Registry, js *mapreduce.Stats) {
	add("mapreduce_jobs_total", 1)
	add("mapreduce_map_input_records_total", js.MapInputRecords)
	add("mapreduce_intermediate_pairs_total", js.IntermediatePairs)
	add("mapreduce_intermediate_bytes_total", js.IntermediateBytes)
	add("mapreduce_reduce_input_keys_total", js.ReduceInputKeys)
	add("mapreduce_reduce_output_records_total", js.ReduceOutputRecords)
	add("mapreduce_map_attempts_total", js.MapAttempts)
	add("mapreduce_map_failures_total", js.MapFailures)
	add("mapreduce_reduce_attempts_total", js.ReduceAttempts)
	add("mapreduce_reduce_failures_total", js.ReduceFailures)
	pairs := reg.Histogram(ReducerPairsHistogram)
	for _, n := range js.PairsPerReducer {
		pairs.Observe(n)
	}
	imb := int64(js.MaxReducerSkew() * 1000)
	reg.Gauge("mapreduce_last_job_imbalance_x1000").Set(imb)
	reg.Histogram("mapreduce_job_imbalance_x1000").Observe(imb)
}
