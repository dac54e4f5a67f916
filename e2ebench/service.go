package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"opportune/internal/data"
	"opportune/internal/service"
	"opportune/internal/session"
	"opportune/internal/workload"
)

const (
	// serviceQPS is the offered rate of the open-loop generator: 0.4 of
	// the closed-loop throughput of the same service configuration, which
	// `cmd/opportuned -load -queries 200` measured at 47–54 requests/s
	// (median 51) at DefaultScale on the machine in README.md. At that
	// load the service drains each burst before the next one is due,
	// so latency does not grow with the length of a run.
	serviceQPS = 20
	// burst is how many requests fall due together; the generator offers
	// them every burst/serviceQPS seconds. It is one and a half times the
	// service's BatchSize (8), so each burst makes the planner cut a full
	// batch on the size trigger, choosing among tenants by its weighted
	// round-robin, and the rest on the latency timer.
	burst = 12
	// roundRequests is one round: a fresh service over an empty view
	// catalog receives this many requests.
	roundRequests = 4 * burst
	// tenants is the Zipfian tenant population; tenantSkew and querySkew
	// are the Zipf exponents of tenant and query popularity (those of
	// cmd/opportuned -load).
	tenants    = 8
	tenantSkew = 1.4
	querySkew  = 1.3
)

// pending is one submitted request awaiting its response.
type pending struct {
	query   string
	due     time.Time
	late    time.Duration
	ticket  *service.Ticket
	err     error // Submit's error; ticket is nil when it is set
	req     int64
	request *span
}

// answered is one response, kept until the round ends so that answer
// checks do not compete with the service for the CPU.
type answered struct {
	query   string
	latency float64 // ms from due time to response
	resp    service.Response
	rel     *data.Relation
}

// runService drives 8 Zipfian tenants submitting the 32 analyst queries
// open-loop at a fixed rate into internal/service, configured with the
// service defaults (ModeOriginal, unlimited view storage). One generator
// goroutine submits on schedule; the calling goroutine collects responses.
// Primary latency: one request, from its due time to its response.
// Secondary: the request's execution, its wall time less admission wait.
// Throughput: correct responses per second of the executor's busy time.
func runService(o options) (*result, error) {
	res := newResult()
	s, err := timeSetups(o, res, func() (*session.Session, error) { return newSession(o) })
	if err != nil {
		return nil, err
	}
	t := startTrace(o, res)
	tr := t.tr
	s.Instrument(t.reg)
	want, err := originalFingerprints(o)
	if err != nil {
		return nil, err
	}

	qs := workload.AllQueries()
	rng := rand.New(rand.NewSource(o.seed))
	ztenant := rand.NewZipf(rng, tenantSkew, 1, tenants-1)
	zquery := rand.NewZipf(rng, querySkew, 1, uint64(len(qs)-1))

	var admit, late []float64
	var batches, fallbacks, completed int64
	var req int64
	stop := measure(res)
	start := time.Now()
	for res.rounds == 0 || time.Since(start).Seconds() < o.seconds {
		s.DropViews()
		svc := service.New(s, service.Config{Obs: t.reg})
		type draw struct {
			tenant string
			q      workload.Query
			at     time.Duration // due time, from the round's start
		}
		draws := make([]draw, roundRequests)
		for i := range draws {
			at := time.Duration(i/burst*burst) * time.Second / serviceQPS
			draws[i] = draw{fmt.Sprintf("tenant%d", ztenant.Uint64()), qs[zquery.Uint64()], at}
		}

		// The buffer holds a whole round, so the generator never waits on
		// the collector and keeps to its schedule.
		inflight := make(chan pending, roundRequests)
		roundStart := time.Now()
		go func(first int64) {
			defer close(inflight)
			for i, d := range draws {
				due := roundStart.Add(d.at)
				time.Sleep(time.Until(due))
				p := pending{query: d.q.Name, due: due, late: time.Since(due), req: first + int64(i)}
				p.request = tr.start("request", p.req, nil)
				ssp := tr.start("service.Submit", p.req, p.request)
				p.ticket, p.err = svc.Submit(d.tenant, d.q.SQL)
				ssp.end()
				inflight <- p
			}
		}(req + 1)
		req += roundRequests

		var done []answered
		for p := range inflight {
			late = append(late, ms(p.late))
			if p.err != nil {
				p.request.end()
				res.attempt("request", p.query, p.err)
				continue
			}
			wsp := tr.start("Ticket.Wait", p.req, p.request)
			resp := p.ticket.Wait()
			wsp.end()
			p.request.end()
			a := answered{query: p.query, latency: ms(time.Since(p.due)), resp: resp}
			if resp.Err == nil {
				a.rel, _ = answer(s, res, p.query, resp.Metrics.ResultName)
			}
			done = append(done, a)
		}
		svc.Close()
		// The round's wall time is fixed by the generator's schedule, so
		// throughput is measured against the executor's busy time instead:
		// the wall of every RunBatch call.
		res.busyS += svc.BatchTotals().WallSeconds

		var sim float64
		for _, a := range done {
			err := a.resp.Err
			if err == nil {
				sim += a.resp.Metrics.StatsSeconds
				if a.rel != nil {
					err = checkRelation(a.rel, want, a.query)
				}
			}
			if res.attempt("request", a.query, err) {
				continue
			}
			res.opsDone++
			res.primary = append(res.primary, a.latency)
			res.secondary = append(res.secondary, ms(a.resp.Wall-a.resp.AdmitWait))
			admit = append(admit, ms(a.resp.AdmitWait))
		}
		st := svc.Stats()
		batches += st.Batches
		fallbacks += st.Fallbacks
		completed += st.Completed
		res.simS += sim + svc.BatchTotals().SimSeconds
		res.viewMB = append(res.viewMB, float64(s.Store.ViewBytes())/1e6)
		res.rounds++
	}
	stop()

	lateMax := 0.0
	for _, l := range late {
		lateMax = max(lateMax, l)
	}
	fmt.Fprintf(os.Stderr, "  generator ran at most %.3f ms late (median %.3f ms)\n", lateMax, median(late))
	if o.trace {
		n := float64(res.rounds)
		res.layers["service.fallbacks"] = float64(fallbacks) / n
		res.layers["service.batches"] = float64(batches) / n
		res.layers["service.batch_size_mean"] = ratio(float64(completed), float64(batches))
		res.layers["service.generator_late_ms"] = lateMax
	}
	err = t.finish(o, res, map[string][]float64{
		"service.admit_wait_ms": admit,
		"service.exec_ms":       res.secondary,
	})
	return res, err
}
