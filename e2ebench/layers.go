package main

import (
	"fmt"
	"strings"

	"opportune/internal/obs"
)

// boundaryPhase names the marker span the benchmark ends in the program's
// registry after a call whose MR jobs belong to no query (AppendRows
// maintenance), so those jobs are not charged to the next query.
const boundaryPhase = "e2ebench-boundary"

// sumCounter adds every label variant of a counter.
func sumCounter(s obs.Snapshot, name string) float64 {
	var t float64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += float64(v)
		}
	}
	return t
}

func sumFloat(s obs.Snapshot, name string) float64 {
	var t float64
	for k, v := range s.FloatCounters {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// programLayers derives the per-layer metrics that come from the program's
// own registry: counter deltas since before, and busy and self times from
// the exported span trees. Counts, volumes and times are per round.
func programLayers(reg *obs.Registry, before obs.Snapshot, rounds int, layers map[string]float64) error {
	snap := reg.Snapshot()
	if n := snap.Counters["obs_spans_dropped_total"]; n > 0 {
		return fmt.Errorf("traced run dropped %d root spans; raise MaxSpans", n)
	}
	d := snap.Diff(before)
	n := float64(max(rounds, 1))
	perRound := func(v float64) float64 { return v / n }

	hits := sumCounter(d, "optimizer_estimate_cache_hits_total")
	layers["optimizer.estimate_hit_ratio"] = ratio(hits, hits+sumCounter(d, "optimizer_estimate_cache_misses_total"))
	layers["rewrite.candidates"] += perRound(sumCounter(d, "rewrite_candidates_considered_total"))
	layers["rewrite.attempts"] += perRound(sumCounter(d, "rewrite_attempts_total"))
	if searches := sumCounter(d, "session_queries_total{mode=bfr}"); searches > 0 {
		layers["rewrite.useful_ratio"] = ratio(sumCounter(d, "rewrites_improved_total"), searches)
	}
	layers["session.stale_replans"] = perRound(sumCounter(d, "session_stale_plan_retries_total"))
	layers["session.views_maintained"] = perRound(sumCounter(d, "session_views_maintained_total"))
	layers["session.views_invalidated"] = perRound(sumCounter(d, "session_views_invalidated_total"))
	layers["session.maintain_sim_s"] = perRound(sumFloat(d, "session_maintenance_sim_seconds_total"))
	layers["session.batch_jobs_deduped"] = perRound(sumCounter(d, "batch_jobs_deduped_total"))
	layers["session.batch_scan_mb_saved"] = perRound(sumCounter(d, "batch_scan_bytes_saved_total") / 1e6)
	if h, ok := d.Histograms["batch_shared_scan_fanin"]; ok {
		layers["session.batch_fanin"] = ratio(h.Sum, float64(h.Count))
	}
	layers["service.size_cut_share"] = ratio(sumCounter(d, "service_batches_total{trigger=size}"), sumCounter(d, "service_batches_total"))
	layers["mr.jobs"] = perRound(sumCounter(d, "mr_jobs_total"))
	layers["mr.input_mb"] = perRound(sumCounter(d, "mr_input_bytes_total") / 1e6)
	layers["mr.shuffle_mb"] = perRound(sumCounter(d, "mr_shuffle_bytes_total") / 1e6)
	layers["mr.output_mb"] = perRound(sumCounter(d, "mr_output_bytes_total") / 1e6)
	layers["mr.fused_row_share"] = ratio(sumCounter(d, "mr_fused_rows_total"), sumCounter(d, "mr_input_rows_total"))
	layers["mr.partition_local_share"] = ratio(sumCounter(d, "mr_partition_local_jobs_total"), sumCounter(d, "mr_keyed_jobs_total"))
	layers["mr.task_retries"] = perRound(sumCounter(d, "mr_task_retries_total"))
	layers["meta.stats_sim_s"] = perRound(sumFloat(d, "session_stats_sim_seconds_total"))
	layers["storage.read_mb"] = perRound(sumCounter(d, "storage_read_bytes_total") / 1e6)
	layers["storage.write_mb"] = perRound(sumCounter(d, "storage_write_bytes_total") / 1e6)

	// Span trees. The engine exports each job as its own root (job →
	// attempt → split/map/shuffle/reduce/materialize); the session exports
	// each query as a root (query → plan/execute/stats) that ends after the
	// query's jobs. Jobs ended since the previous query root therefore
	// belong to the query root that follows them.
	var phase = map[string]float64{}
	var plan, exec, stats, outside, pendingJobs float64
	for _, root := range reg.Spans() {
		switch root.Phase {
		case "job":
			pendingJobs += root.WallSeconds
			for _, att := range root.Children {
				for _, p := range att.Children {
					phase[p.Phase] += p.WallSeconds
				}
			}
		case "query":
			var pw, ew, sw float64
			for _, c := range root.Children {
				switch c.Phase {
				case "plan":
					pw += c.WallSeconds
				case "execute":
					ew += c.WallSeconds
				case "stats":
					sw += c.WallSeconds
				}
			}
			plan += pw
			exec += ew
			stats += sw
			// The query's wall outside planning and its MR jobs: pinning,
			// view registration and, above all, statistics sampling of
			// the views it retained.
			outside += max(root.WallSeconds-pw-sw-pendingJobs, 0)
			pendingJobs = 0
		case boundaryPhase:
			pendingJobs = 0
		}
	}
	sec := func(v float64) float64 { return perRound(v * 1e3) }
	layers["session.plan_ms"] = sec(plan)
	layers["session.execute_ms"] = sec(exec)
	layers["session.stats_ms"] = sec(stats)
	layers["meta.stats_ms"] = sec(outside)
	layers["mr.map_ms"] = sec(phase["split"] + phase["map"])
	layers["mr.shuffle_ms"] = sec(phase["shuffle"])
	layers["mr.reduce_ms"] = sec(phase["reduce"])
	layers["mr.materialize_ms"] = sec(phase["materialize"])
	return nil
}
