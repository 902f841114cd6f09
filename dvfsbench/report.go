package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// checker applies the output checks. A response fails when it is an
// error or a rejection, when its predicted performance loss exceeds
// the request's target, when a cache hit's strategy differs from the
// first strategy served for its key, or when a strategy differs from
// the traced replay of the same request.
type checker struct {
	first map[string][sha256.Size]byte
	fails map[*outcome]string
}

func check(st *setup, h *httpRun) *checker {
	c := &checker{first: map[string][sha256.Size]byte{}, fails: map[*outcome]string{}}
	for _, o := range checked(st, h) {
		c.observe(o)
	}
	return c
}

// checked lists every request whose output the run checks: the last
// set-up's warm-ups, the timed window and the resubmissions.
func checked(st *setup, h *httpRun) []*outcome {
	out := append([]*outcome(nil), st.warm...)
	out = append(out, h.timed...)
	return append(out, h.post...)
}

func (c *checker) fail(o *outcome, format string, args ...any) {
	if _, ok := c.fails[o]; !ok {
		c.fails[o] = fmt.Sprintf(format, args...)
	}
}

func (c *checker) failed() int { return len(c.fails) }

func (c *checker) observe(o *outcome) {
	if !o.ok() {
		c.fail(o, "%s", describe(o))
		return
	}
	spec := o.req.Search
	if err := spec.Canonicalize(); err != nil {
		c.fail(o, "%v", err)
		return
	}
	if loss := o.status.Result.Predicted.PerfLossPct; loss > 100*spec.TargetLoss+1e-9 {
		c.fail(o, "predicted loss %.4f%% over the %.0f%% target", loss, 100*spec.TargetLoss)
	}
	k := o.req.key()
	f, seen := c.first[k]
	switch {
	case !o.cached() && !seen:
		c.first[k] = o.digest
	case o.cached() && !seen:
		c.fail(o, "cache hit before any result for its key")
	case o.cached() && f != o.digest:
		c.fail(o, "cache hit differs from the key's first result")
	}
}

// replayPair joins a request's HTTP outcome with its replay.
type replayPair struct {
	o *outcome
	r *replayed
}

// replay re-executes requests in-process. The traced run replays every
// request in order; an untraced run replays the warm-ups and every
// completed cache miss, which is what the strategy check needs: a hit
// is checked against its key's first result instead.
func replay(ctx context.Context, rp *replayer, st *setup, h *httpRun, full bool) ([]replayPair, error) {
	list := append([]*outcome(nil), st.warm...)
	for _, o := range append(append([]*outcome(nil), h.timed...), h.post...) {
		if full || !o.cached() {
			list = append(list, o)
		}
	}
	var out []replayPair
	for _, o := range list {
		if !o.ok() {
			continue
		}
		r, err := rp.serve(ctx, o.req)
		if err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", o.req.ID, err)
		}
		out = append(out, replayPair{o: o, r: r})
	}
	return out, nil
}

func (c *checker) compareReplay(pairs []replayPair) {
	for _, p := range pairs {
		if sha256.Sum256(p.r.strategy) != p.o.digest {
			c.fail(p.o, "strategy differs from the traced replay")
		}
		if p.r.cached != p.o.cached() {
			c.fail(p.o, "daemon cached=%v but replay cached=%v", p.o.cached(), p.r.cached)
		}
	}
}

// e2eResult holds the end-to-end metrics and where their samples came
// from.
type e2eResult struct {
	metrics map[string]metric
	q       map[string]quantile
	from    map[string]string
	cold    []*outcome
	hit     []*outcome
	lateP99 quantile
	timedOK int
}

func latencies(outs []*outcome) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = ms(o.latency())
	}
	return v
}

// split returns the completed cache misses and hits.
func split(outs []*outcome) (cold, hit []*outcome) {
	for _, o := range outs {
		switch {
		case !o.ok():
		case o.cached():
			hit = append(hit, o)
		default:
			cold = append(cold, o)
		}
	}
	return cold, hit
}

// socSaving is the mean predicted SoC saving, averaged per loss target
// first so the number of completed requests per target does not move
// it.
func socSaving(outs []*outcome) float64 {
	by := map[float64][]float64{}
	for _, o := range outs {
		t := o.status.Result.Search.TargetLoss
		by[t] = append(by[t], o.status.Result.Predicted.SoCSavingPct)
	}
	var means []float64
	for _, v := range by {
		means = append(means, mean(v))
	}
	sort.Float64s(means)
	return mean(means)
}

// endToEnd computes the user-facing metrics. Every workload reports
// every metric: where the timed window has no request of a class, the
// samples come from the probes after it, and the run metadata says so.
func endToEnd(h *httpRun, setupS []float64) *e2eResult {
	e := &e2eResult{metrics: map[string]metric{}, q: map[string]quantile{}, from: map[string]string{}}
	cold, hit := split(h.timed)
	e.timedOK = len(cold) + len(hit)
	e.from["cold"], e.from["hit"] = "timed", "timed"
	postCold, postHit := split(h.post)
	if len(cold) == 0 {
		cold, e.from["cold"] = postCold, "probes"
	}
	if len(hit) == 0 {
		hit, e.from["hit"] = postHit, "probes"
	}
	e.cold, e.hit = cold, hit
	cl, hl := latencies(cold), latencies(hit)
	e.q["cold_p50_ms"] = median(cl)
	e.q["cold_p90_ms"] = tail(cl, 90)
	e.q["hit_p50_ms"] = median(hl)
	e.q["hit_p90_ms"] = tail(hl, 90)
	e.q["hit_p99_ms"] = tail(hl, 99)
	for k, q := range e.q {
		e.metrics[k] = metric{q.Value, "ms"}
	}
	e.metrics["setup_s"] = metric{median(setupS).Value, "s"}
	e.metrics["soc_saving_pct"] = metric{socSaving(cold), "%"}
	done := e.timedOK
	if done < 1 {
		done = 1
	}
	e.metrics["alloc_mb_per_req"] = metric{float64(h.r1.allocBytes-h.r0.allocBytes) / 1e6 / float64(done), "MB"}
	e.metrics["live_heap_mb"] = metric{float64(h.liveHeap) / 1e6, "MB"}
	e.metrics["cpu_ms_per_req"] = metric{1000 * h.cpu / float64(done), "ms"}
	e.lateP99 = tail(h.late, 99)
	return e
}

// lateShare bounds how far an open-loop generator may fall behind its
// schedule, as a share of the window: with the p99 request sent later
// than this after its due time, the run is invalid rather than slow.
// Lateness below it is queueing for one of the few connections, which
// the latency of the late request includes.
const lateShare = 0.1

func lateLimitMs(o options) float64 {
	return lateShare * 1000 * float64(o.seconds)
}

// lateCheck returns why a run is invalid, or "".
func lateCheck(o options, e *e2eResult) string {
	if lim := lateLimitMs(o); e.lateP99.Value > lim {
		return fmt.Sprintf("the generator ran %.2f ms late at p99 (limit %.2f ms)", e.lateP99.Value, lim)
	}
	return ""
}

func metadata(o options, st *setup, h *httpRun, c *checker, e *e2eResult, setupS []float64) map[string]any {
	type counts struct {
		Sent      int `json:"sent"`
		Succeeded int `json:"succeeded"`
		Failed    int `json:"failed"`
	}
	byPhase := map[string]*counts{}
	names := map[phase]string{phaseWarm: "warm-up", phaseTimed: "timed", phasePost: "probe"}
	for _, out := range checked(st, h) {
		k := names[out.req.Phase]
		if byPhase[k] == nil {
			byPhase[k] = &counts{}
		}
		byPhase[k].Sent++
		if _, bad := c.fails[out]; bad {
			byPhase[k].Failed++
		} else {
			byPhase[k].Succeeded++
		}
	}
	var reasons []string
	for out, why := range c.fails {
		reasons = append(reasons, fmt.Sprintf("request %d: %s", out.req.ID, why))
	}
	sort.Strings(reasons)
	if len(reasons) > 10 {
		reasons = reasons[:10]
	}
	return map[string]any{
		"workload":         o.workload,
		"setup_s":          setupS,
		"seed":             o.seed,
		"seconds":          o.seconds,
		"trace":            o.trace,
		"commit":           o.commit,
		"cpu_model":        cpuModel(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cpu_steal_frac":   h.steal,
		"go_version":       runtime.Version(),
		"dvfsd_ga_islands": h.m1["dvfsd_ga_islands"],
		"requests":         byPhase,
		"failures":         reasons,
		"percentiles":      e.q,
		"samples_from":     e.from,
		"gen_late_p99_ms":  e.lateP99,
		"gen_late_limit":   lateLimitMs(o),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
