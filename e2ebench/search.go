package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"opportune/internal/hiveql"
	"opportune/internal/meta"
	"opportune/internal/rewrite"
	"opportune/internal/session"
	"opportune/internal/workload"
)

// bfrPasses is how many times a round searches every holdout by BFR for
// its one DP pass: BFR is two orders of magnitude cheaper, and the passes
// give its tail_ms (p95) enough samples.
const bfrPasses = 60

// searchState is the search workload's starting state: one session holding
// every analyst's v1 views, and per holdout the views the other seven
// analysts' v1 queries produced.
type searchState struct {
	s       *session.Session
	targets []workload.Query
	views   [][]*meta.TableInfo
}

// buildSearch runs the eight v1 queries in ModeOriginal and splits the
// resulting catalog into the Fig 9 user-evolution holdout catalogs.
func buildSearch(o options) (*searchState, error) {
	s, err := newSession(o)
	if err != nil {
		return nil, err
	}
	st := &searchState{s: s}
	producedBy := make(map[string]map[int]bool) // view → analysts whose v1 made it
	for a := 1; a <= 8; a++ {
		q := workload.QueryFor(a, 1)
		stmt, err := hiveql.ParseOne(q.SQL)
		if err != nil {
			return nil, err
		}
		w, err := s.Opt.Compile(stmt.Plan)
		if err != nil {
			return nil, err
		}
		for _, jn := range w.Nodes {
			name := jn.ViewName
			if jn == w.Sink() {
				name = q.Name
			}
			if producedBy[name] == nil {
				producedBy[name] = make(map[int]bool)
			}
			producedBy[name][a] = true
		}
		if _, err := s.Run(stmt.Plan, stmt.Table, session.ModeOriginal); err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		st.targets = append(st.targets, q)
	}
	all := s.Cat.Views()
	for h := 1; h <= 8; h++ {
		var vs []*meta.TableInfo
		for _, v := range all {
			for a := range producedBy[v.Name] {
				if a != h {
					vs = append(vs, v)
					break
				}
			}
		}
		st.views = append(st.views, vs)
	}
	return st, nil
}

// runSearch measures rewrite search alone: each holdout's v1 against the
// other seven analysts' v1 views, by BFR and by the DP baseline. Nothing
// executes. An operation is one holdout target, searched bfrPasses times
// by BFR and once by DP in a round. A search is ParseOne + Compile + one
// rewrite call. Latency samples are per pass over all eight holdouts, in ms
// per search, because the holdouts' search times differ several-fold and a
// median over single searches would fall between them. Primary: one BFR
// pass. Secondary: one DP pass.
func runSearch(o options) (*result, error) {
	res := newResult()
	st, err := timeSetups(o, res, func() (*searchState, error) { return buildSearch(o) })
	if err != nil {
		return nil, err
	}
	t := startTrace(o, res)
	tr := t.tr
	st.s.Instrument(t.reg)
	res.viewMB = []float64{float64(st.s.Store.ViewBytes()) / 1e6}

	var candidates, attempts, improved, searches float64
	perTarget := make([][]float64, len(st.targets))
	var req int64
	stop := measure(res)
	start := time.Now()
	for res.rounds == 0 || time.Since(start).Seconds() < o.seconds {
		bfr := make([]*rewrite.Result, len(st.targets))
		errs := make([]error, len(st.targets))
		for i := 0; i < bfrPasses; i++ {
			var pass time.Duration
			for h, q := range st.targets {
				req++
				t0 := time.Now()
				r, err := search(st.s, q, st.views[h], false, tr, req)
				pass += time.Since(t0)
				switch {
				case errs[h] != nil:
				case err != nil:
					errs[h] = err
				case bfr[h] != nil && (r.Cost != bfr[h].Cost || r.Counters != bfr[h].Counters):
					errs[h] = fmt.Errorf("repeated BFR searches disagree")
				default:
					bfr[h] = r
				}
			}
			res.busyS += pass.Seconds()
			res.primary = append(res.primary, ms(pass)/float64(len(st.targets)))
		}
		var pass time.Duration
		for h, q := range st.targets {
			req++
			t0 := time.Now()
			dp, err := search(st.s, q, st.views[h], true, tr, req)
			d := time.Since(t0)
			pass += d
			perTarget[h] = append(perTarget[h], ms(d))
			if errs[h] != nil {
				err = errs[h]
			}
			if err == nil {
				err = checkSearch(bfr[h], dp)
			}
			if res.attempt("target", q.Name, err) {
				continue
			}
			res.opsDone++
			res.simS += bfr[h].Cost
			for _, r := range []*rewrite.Result{bfr[h], dp} {
				candidates += float64(r.Counters.CandidatesConsidered)
				attempts += float64(r.Counters.RewriteAttempts)
				searches++
				if r.Improved {
					improved++
				}
			}
		}
		res.busyS += pass.Seconds()
		res.secondary = append(res.secondary, ms(pass)/float64(len(st.targets)))
		res.rounds++
	}
	stop()
	for h, ds := range perTarget {
		fmt.Fprintf(os.Stderr, "  holdout %s: DP median %.1f ms over %d searches, %d views\n",
			st.targets[h].Name, median(ds), len(ds), len(st.views[h]))
	}

	if err := t.finish(o, res, map[string][]float64{
		"hiveql.parse_ms":      tr.durations("hiveql.ParseOne"),
		"optimizer.compile_ms": tr.durations("Optimizer.Compile"),
		"rewrite.bfr_ms":       tr.durations("Rewriter.BFRewrite"),
		"rewrite.dp_ms":        tr.durations("Rewriter.DPRewrite"),
	}); err != nil {
		return nil, err
	}
	if o.trace {
		// The rewriter's counters, read from its results because the
		// benchmark calls it directly: one BFR and one DP search per
		// holdout and round.
		n := float64(res.rounds)
		res.layers["rewrite.candidates"] = candidates / n
		res.layers["rewrite.attempts"] = attempts / n
		res.layers["rewrite.useful_ratio"] = ratio(improved, searches)
	}
	return res, nil
}

// search plans one target against a holdout catalog the way the session
// plans a query: fresh estimates, compile, then one rewrite search.
func search(s *session.Session, q workload.Query, views []*meta.TableInfo, dp bool, tr *tracer, req int64) (*rewrite.Result, error) {
	name := "Rewriter.BFRewrite"
	if dp {
		name = "Rewriter.DPRewrite"
	}
	root := tr.start("search", req, nil)
	defer root.end()
	psp := tr.start("hiveql.ParseOne", req, root)
	stmt, err := hiveql.ParseOne(q.SQL)
	psp.end()
	if err != nil {
		return nil, err
	}
	csp := tr.start("Optimizer.Compile", req, root)
	s.Opt.ClearEstimates()
	w, err := s.Opt.Compile(stmt.Plan)
	csp.end()
	if err != nil {
		return nil, err
	}
	rsp := tr.start(name, req, root)
	defer rsp.end()
	if dp {
		return s.Rew.DPRewrite(w, views), nil
	}
	return s.Rew.BFRewrite(w, views), nil
}

// checkSearch holds the method properties of Fig 9: BFR and DP find rewrites
// of equal cost, and BFR considers fewer candidates.
func checkSearch(bfr, dp *rewrite.Result) error {
	if math.Abs(bfr.Cost-dp.Cost) > 1e-9*(1+bfr.Cost+dp.Cost) {
		return fmt.Errorf("BFR cost %.9g != DP cost %.9g", bfr.Cost, dp.Cost)
	}
	if bfr.Counters.CandidatesConsidered >= dp.Counters.CandidatesConsidered {
		return fmt.Errorf("BFR considered %d candidates, DP %d",
			bfr.Counters.CandidatesConsidered, dp.Counters.CandidatesConsidered)
	}
	return nil
}
