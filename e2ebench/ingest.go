package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"opportune/internal/data"
	"opportune/internal/session"
	"opportune/internal/value"
	"opportune/internal/workload"
)

const (
	// appendRows is the size of one TWTR append batch.
	appendRows = 250
	// cycleRounds is how many append + refresh rounds run on one session
	// before the next starts from a fresh set-up, so the base log a round
	// sees does not depend on how fast earlier rounds ran.
	cycleRounds = 12
)

// buildIngest installs the datasets and materializes the four standing
// ingest views.
func buildIngest(o options) (*session.Session, error) {
	s, err := newSession(o)
	if err != nil {
		return nil, err
	}
	for _, q := range workload.IngestQueries() {
		if _, err := workload.Exec(s, q, session.ModeBFR); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// runIngest appends TWTR batches and, after each, refreshes the standing
// views by running their queries in ModeBFR. Primary operation: one
// AppendRows, maintenance included. Secondary: one refresh, the time after
// an append to bring every standing view current.
func runIngest(o options) (*result, error) {
	res := newResult()
	// tail_ms is the p90 of refresh: a 20 s run makes only ≈ 115 rounds,
	// so p95 would rest on ≈ 6 samples, and the append latencies are
	// bimodal (README.md), which leaves any tail quantile of them unsteady.
	res.tailQ = 0.90
	s, err := timeSetups(o, res, func() (*session.Session, error) { return buildIngest(o) })
	if err != nil {
		return nil, err
	}
	t := startTrace(o, res)
	tr := t.tr
	var bfrMs []float64
	queries := workload.IngestQueries()
	base := newIngestRef(o.scale)
	var req int64
	stop := measure(res)
	start := time.Now()
	for res.rounds == 0 || time.Since(start).Seconds() < o.seconds {
		if res.rounds > 0 {
			t := time.Now()
			if s, err = buildIngest(o); err != nil {
				return nil, err
			}
			res.setupS = append(res.setupS, time.Since(t).Seconds())
		}
		s.Instrument(t.reg)
		ref := base.clone()
		for epoch := 0; epoch < cycleRounds; epoch++ {
			rows := workload.AppendBatch(o.scale, epoch, appendRows)
			req++
			t0 := time.Now()
			asp := tr.start("Session.AppendRows", req, nil)
			rep, err := s.AppendRows("twtr", rows)
			asp.end()
			da := time.Since(t0)
			if res.attempt("append", "twtr", err) {
				return nil, fmt.Errorf("append: %w", err)
			}
			t.reg.StartSpan("append", boundaryPhase).End()
			ref.add(rows)
			sim := rep.MaintainSeconds + rep.StatsSeconds

			answers := make([]string, len(queries))
			errs := make([]error, len(queries))
			t1 := time.Now()
			for i, q := range queries {
				req++
				m, err := runQuery(s, q, session.ModeBFR, tr, req)
				if errs[i] = err; err != nil {
					continue
				}
				sim += m.ExecSeconds + m.StatsSeconds
				answers[i] = m.ResultName
				if m.Rewrite != nil {
					bfrMs = append(bfrMs, m.RewriteSeconds*1e3)
				}
			}
			dr := time.Since(t1)
			res.busyS += (da + dr).Seconds()
			res.simS += sim
			res.primary = append(res.primary, ms(da))
			res.opsDone += float64(len(rows))
			failed := false
			for i, want := range ref.expected() {
				err := errs[i]
				if err == nil {
					if rel, ok := answer(s, res, queries[i].Name, answers[i]); ok {
						err = checkStanding(rel, want)
					}
				}
				failed = res.attempt("refresh", queries[i].Name, err) || failed
			}
			if !failed {
				res.secondary = append(res.secondary, ms(dr))
			}
		}
		res.rounds += cycleRounds
		res.viewMB = append(res.viewMB, float64(s.Store.ViewBytes())/1e6)
	}
	stop()
	res.tail = res.secondary

	err = t.finish(o, res, map[string][]float64{
		"hiveql.parse_ms": tr.durations("hiveql.ParseOne"),
		"rewrite.bfr_ms":  bfrMs,
	})
	return res, err
}

// ingestRef recomputes the four standing views in plain Go from the
// generated base rows plus every appended batch.
type ingestRef struct {
	activity map[int64]*[3]int64 // user → count, min ts, max ts
	replies  []string
	visits   map[int64]int64
	tweets   map[int64]int64 // user → tweets
	checkins map[int64]int64 // user → check-ins
	tw       twtrCols
}

type twtrCols struct{ id, user, ts, reply int }

func newIngestRef(sc workload.Scale) *ingestRef {
	ds := workload.Generate(sc)
	ts := ds.TWTR.Schema()
	r := &ingestRef{
		activity: make(map[int64]*[3]int64),
		visits:   make(map[int64]int64),
		tweets:   make(map[int64]int64),
		checkins: make(map[int64]int64),
		tw: twtrCols{
			id: ts.MustIndex("tweet_id"), user: ts.MustIndex("user_id"),
			ts: ts.MustIndex("ts"), reply: ts.MustIndex("reply_to"),
		},
	}
	r.add(ds.TWTR.Rows())
	fs := ds.FSQ.Schema()
	fu, fl := fs.MustIndex("user_id"), fs.MustIndex("location_id")
	for _, row := range ds.FSQ.Rows() {
		r.checkins[row[fu].Int()]++
		r.visits[row[fl].Int()]++
	}
	return r
}

// clone copies the reference, so each cycle starts from the base rows.
func (r *ingestRef) clone() *ingestRef {
	c := *r
	c.activity = make(map[int64]*[3]int64, len(r.activity))
	for u, a := range r.activity {
		cp := *a
		c.activity[u] = &cp
	}
	c.replies = append([]string(nil), r.replies...)
	c.tweets = make(map[int64]int64, len(r.tweets))
	for u, n := range r.tweets {
		c.tweets[u] = n
	}
	return &c
}

// add folds TWTR rows (base or appended) into the reference.
func (r *ingestRef) add(rows []data.Row) {
	for _, row := range rows {
		u, t := row[r.tw.user].Int(), row[r.tw.ts].Int()
		a := r.activity[u]
		if a == nil {
			a = &[3]int64{0, t, t}
			r.activity[u] = a
		}
		a[0]++
		a[1] = min(a[1], t)
		a[2] = max(a[2], t)
		r.tweets[u]++
		if rp := row[r.tw.reply]; !rp.IsNull() && rp.Int() >= 0 {
			r.replies = append(r.replies, canonRow(row[r.tw.id], row[r.tw.user], rp))
		}
	}
}

// expected returns each standing view's column names and rows in
// canonical form, in IngestQueries order.
func (r *ingestRef) expected() [4][]string {
	var out [4][]string
	out[0] = []string{"user_id,n_tweets,first_ts,last_ts"}
	for u, a := range r.activity {
		out[0] = append(out[0], canonRow(value.NewInt(u), value.NewInt(a[0]), value.NewInt(a[1]), value.NewInt(a[2])))
	}
	out[1] = append([]string{"tweet_id,user_id,reply_to"}, r.replies...)
	out[2] = []string{"location_id,visits"}
	for l, n := range r.visits {
		out[2] = append(out[2], canonRow(value.NewInt(l), value.NewInt(n)))
	}
	out[3] = []string{"user_id,events"}
	for u, n := range r.tweets {
		if c := r.checkins[u]; c > 0 {
			out[3] = append(out[3], canonRow(value.NewInt(u), value.NewInt(n*c)))
		}
	}
	return out
}

// checkStanding requires a standing view's answer to equal the reference
// rows as a multiset. want[0] names the columns.
func checkStanding(rel *data.Relation, want []string) error {
	got, err := canonRelation(rel, strings.Split(want[0], ","))
	if err != nil {
		return err
	}
	rows := append([]string(nil), want[1:]...)
	sort.Strings(rows)
	if !slices.Equal(got, rows) {
		return fmt.Errorf("wrong answer: %d rows differ from the reference's %d", len(got), len(rows))
	}
	return nil
}

// canonRow renders values kind-tagged, so an Int 3 and a Float 3 differ.
func canonRow(vs ...value.V) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s:%s", v.Kind(), v.String())
	}
	return b.String()
}

// canonRelation renders a relation's rows over the named columns, sorted.
func canonRelation(rel *data.Relation, cols []string) ([]string, error) {
	sch := rel.Schema()
	if sch.Len() != len(cols) {
		return nil, fmt.Errorf("schema %s, want columns %v", sch, cols)
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := sch.Index(c)
		if !ok {
			return nil, fmt.Errorf("schema %s lacks column %q", sch, c)
		}
		idx[i] = j
	}
	out := make([]string, 0, rel.Len())
	vs := make([]value.V, len(cols))
	for _, row := range rel.Rows() {
		for i, j := range idx {
			vs[i] = row[j]
		}
		out = append(out, canonRow(vs...))
	}
	sort.Strings(out)
	return out, nil
}
