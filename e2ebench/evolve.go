package main

import (
	"fmt"
	"time"

	"opportune/internal/data"
	"opportune/internal/hiveql"
	"opportune/internal/session"
	"opportune/internal/workload"
)

// evolveOrder is one pass of the paper's query-evolution traffic (Fig 7–8):
// analysts A1–A8 in turn, each running v1 → v4.
func evolveOrder() []workload.Query {
	var qs []workload.Query
	for a := 1; a <= 8; a++ {
		for v := 1; v <= 4; v++ {
			qs = append(qs, workload.QueryFor(a, v))
		}
	}
	return qs
}

// runEvolve replays the evolution traffic in ModeBFR on one session with
// unlimited view storage, pass after pass, dropping every view between
// passes. Primary operation: one query (ParseOne + Session.Run). Secondary:
// one pass's eight from-scratch v1 queries together; their latencies are
// too unlike one another for a median over single v1 queries to repeat.
func runEvolve(o options) (*result, error) {
	res := newResult()
	s, err := timeSetups(o, res, func() (*session.Session, error) { return newSession(o) })
	if err != nil {
		return nil, err
	}
	t := startTrace(o, res)
	tr := t.tr
	s.Instrument(t.reg)

	queries := evolveOrder()
	want, err := originalFingerprints(o)
	if err != nil {
		return nil, err
	}
	var bfrMs []float64
	var req int64
	stop := measure(res)
	start := time.Now()
	for res.rounds == 0 || time.Since(start).Seconds() < o.seconds {
		s.DropViews()
		var fromScratch float64
		for _, q := range queries {
			req++
			t0 := time.Now()
			m, err := runQuery(s, q, session.ModeBFR, tr, req)
			d := time.Since(t0)
			res.busyS += d.Seconds()
			if err == nil {
				res.simS += m.ExecSeconds + m.StatsSeconds
				if m.Rewrite != nil {
					bfrMs = append(bfrMs, m.RewriteSeconds*1e3)
				}
				if rel, ok := answer(s, res, q.Name, m.ResultName); ok {
					err = checkRelation(rel, want, q.Name)
				}
			}
			if res.attempt("query", q.Name, err) {
				continue
			}
			res.opsDone++
			res.primary = append(res.primary, ms(d))
			if q.Version == 1 {
				fromScratch += ms(d)
			}
		}
		res.secondary = append(res.secondary, fromScratch)
		res.rounds++
		res.viewMB = append(res.viewMB, float64(s.Store.ViewBytes())/1e6)
	}
	stop()

	err = t.finish(o, res, map[string][]float64{
		"hiveql.parse_ms": tr.durations("hiveql.ParseOne"),
		"rewrite.bfr_ms":  bfrMs,
	})
	return res, err
}

// runQuery parses and runs one workload query, with benchmark spans around
// both public calls.
func runQuery(s *session.Session, q workload.Query, mode session.Mode, tr *tracer, req int64) (*session.Metrics, error) {
	qsp := tr.start("query", req, nil)
	defer qsp.end()
	psp := tr.start("hiveql.ParseOne", req, qsp)
	st, err := hiveql.ParseOne(q.SQL)
	psp.end()
	if err != nil {
		return nil, err
	}
	rsp := tr.start("Session.Run", req, qsp)
	m, err := s.Run(st.Plan, st.Table, mode)
	rsp.end()
	return m, err
}

// answer returns the relation an answer names. It reads through
// Store.Meta, which counts no read, so checks do not move the retention
// policy's recency. An answer missing from the store cannot be checked and
// makes the run report correct=false.
func answer(s *session.Session, res *result, query, resultName string) (*data.Relation, bool) {
	ds, ok := s.Store.Meta(resultName)
	if !ok {
		res.fail("%s: answer %q is not in the store", query, resultName)
		return nil, false
	}
	return ds.Relation(), true
}

// checkRelation requires an answer to be fingerprint-equal to the query's
// ModeOriginal result: rewrites must be equivalent to the query as written.
func checkRelation(rel *data.Relation, want map[string]uint64, query string) error {
	if fp := rel.Fingerprint(); fp != want[query] {
		return fmt.Errorf("wrong answer: %d rows, fingerprint differs from ModeOriginal", rel.Len())
	}
	return nil
}

// originalFingerprints runs every analyst query in ModeOriginal on a
// separate session and returns each result's order-independent
// fingerprint. It is the reference for the evolve and service checks and
// is not part of set-up.
func originalFingerprints(o options) (map[string]uint64, error) {
	ref, err := newSession(o)
	if err != nil {
		return nil, err
	}
	want := make(map[string]uint64)
	for _, q := range workload.AllQueries() {
		if _, err := workload.Exec(ref, q, session.ModeOriginal); err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		rel, err := ref.Store.Read(q.Name)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.Name, err)
		}
		want[q.Name] = rel.Fingerprint()
	}
	return want, nil
}
