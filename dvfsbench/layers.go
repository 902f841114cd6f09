package main

import (
	"fmt"
	"sort"
)

// Trace sizes of the workloads the benchmark searches, in ops; the
// preprocess cost per op is reported for each so a super-linear merge
// shows as a knee.
var traceSizes = []int{1195, 5430, 18482}

// otherSpans are the replay's own glue between layer calls.
var otherSpans = []string{"request", "server.generate", "server.build_response"}

// layerStats selects, for each span name, the requests whose numbers a
// layer metric is taken over: the timed window's requests that called
// the layer or, when none did, the probes, then the set-up warm-ups.
type layerStats struct {
	use   map[int]map[string]*layerUse
	phase map[int]phase
	ids   []int
}

func newLayerStats(rp *replayer, pairs []replayPair) *layerStats {
	ls := &layerStats{use: selfTimes(rp.tr.spans), phase: map[int]phase{}}
	for _, p := range pairs {
		ls.phase[p.o.req.ID] = p.o.req.Phase
		ls.ids = append(ls.ids, p.o.req.ID)
	}
	return ls
}

var searchOrder = []phase{phaseTimed, phasePost, phaseWarm}

// preferred is the phase a layer's metrics are taken from: the first
// phase in searchOrder with a request that called any of the named
// spans.
func (ls *layerStats) preferred(names ...string) phase {
	for _, ph := range searchOrder {
		for _, id := range ls.ids {
			if ls.phase[id] != ph {
				continue
			}
			for _, n := range names {
				if ls.use[id][n] != nil {
					return ph
				}
			}
		}
	}
	return phaseWarm
}

// uses returns the selected requests' use of a layer.
func (ls *layerStats) uses(name string) []*layerUse {
	ph := ls.preferred(name)
	var out []*layerUse
	for _, id := range ls.ids {
		if u := ls.use[id][name]; u != nil && ls.phase[id] == ph {
			out = append(out, u)
		}
	}
	return out
}

// selfMs is the median per-request self time of the named spans.
func (ls *layerStats) selfMs(names ...string) float64 {
	return median(ls.usesAny(names)).Value
}

// usesAny returns, per selected request, the summed self time (ms) of
// the named spans.
func (ls *layerStats) usesAny(names []string) []float64 {
	ph := ls.preferred(names...)
	var out []float64
	for _, id := range ls.ids {
		if ls.phase[id] != ph {
			continue
		}
		var sum int64
		found := false
		for _, n := range names {
			if u := ls.use[id][n]; u != nil {
				sum += u.selfNs
				found = true
			}
		}
		if found {
			out = append(out, float64(sum)/1e6)
		}
	}
	return out
}

// perCall is the median duration of single calls of a layer, in ms.
func (ls *layerStats) perCall(name string) float64 {
	var v []float64
	for _, u := range ls.uses(name) {
		for _, d := range u.callNs {
			v = append(v, float64(d)/1e6)
		}
	}
	return median(v).Value
}

// allocMB is the median per-request allocation of a layer.
func (ls *layerStats) allocMB(name string) float64 {
	var v []float64
	for _, u := range ls.uses(name) {
		v = append(v, float64(u.alloc)/1e6)
	}
	return median(v).Value
}

// accounting compares the HTTP latency of the primary request class
// with the replayed layers' self times.
type accounting struct {
	Class          string             `json:"class"`
	HTTPp50Ms      float64            `json:"http_p50_ms"`
	LayerMedianMs  map[string]float64 `json:"layer_self_median_ms"`
	LayersSumMs    float64            `json:"layers_sum_ms"`
	UnattributedMs float64            `json:"unattributed_ms"`
	ResidualMs     float64            `json:"residual_ms"`
	Requests       int                `json:"requests"`
}

// perLayer computes the traced run's metrics.
func perLayer(h *httpRun, rp *replayer, pairs []replayPair, e *e2eResult) (map[string]metric, *accounting) {
	ls := newLayerStats(rp, pairs)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// server: from the HTTP run.
	var submit []float64
	rejects := 0
	for _, o := range h.timed {
		if o.code == 503 {
			rejects++
		}
		if !o.posted.IsZero() && o.err == nil {
			submit = append(submit, ms(o.posted.Sub(o.sent)))
		}
	}
	var queue, search, polls []float64
	for _, o := range e.cold {
		queue = append(queue, float64(o.status.QueueMillis))
		search = append(search, float64(o.status.SearchMillis))
		polls = append(polls, float64(o.polls))
	}
	hits := h.m1["dvfsd_cache_hits_total"] - h.m0["dvfsd_cache_hits_total"]
	misses := h.m1["dvfsd_cache_misses_total"] - h.m0["dvfsd_cache_misses_total"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	put("server.submit_ms", median(submit).Value, "ms")
	put("server.queue_ms_p90", tail(queue, 90).Value, "ms")
	put("server.search_ms", median(search).Value, "ms")
	put("server.polls_per_job", mean(polls), "count")
	put("server.rejects", float64(rejects), "count")
	put("server.metrics_ms", median(h.scrapes.ms).Value, "ms")
	put("server.cache_hit_ratio", ratio, "ratio")

	// The primary class is the workload's timed cache misses, or its
	// hits when it has none.
	byOutcome := map[*outcome]*replayed{}
	for _, p := range pairs {
		byOutcome[p.o] = p.r
	}
	primary, class := e.cold, "cold"
	if e.from["cold"] != "timed" {
		primary, class = e.hit, "hit"
	}
	var unattr, httpLat []float64
	rootMs := func(r *replayed) float64 {
		s := rp.tr.spans[r.root]
		return float64(s.End-s.Start) / 1e6
	}
	for _, o := range primary {
		if r := byOutcome[o]; r != nil {
			unattr = append(unattr, ms(o.latency())-rootMs(r))
			httpLat = append(httpLat, ms(o.latency()))
		}
	}
	put("server.unattributed_ms", median(unattr).Value, "ms")

	// Tracing overhead: replayed cold requests against their HTTP
	// latency.
	var replayCold, httpCold []float64
	for _, o := range e.cold {
		if r := byOutcome[o]; r != nil {
			replayCold = append(replayCold, rootMs(r))
			httpCold = append(httpCold, ms(o.latency()))
		}
	}
	if hc := median(httpCold).Value; hc > 0 {
		put("trace.overhead_pct", 100*(median(replayCold).Value/hc-1), "%")
	} else {
		put("trace.overhead_pct", 0, "%")
	}

	// Replayed layers.
	put("traceio.decode_ms", ls.selfMs("traceio.decode"), "ms")
	put("traceio.decode_mb", ls.allocMB("traceio.decode"), "MB")
	put("traceio.fingerprint_ms", ls.selfMs("traceio.fingerprint"), "ms")
	put("traceio.write_strategy_ms", ls.selfMs("traceio.write_strategy"), "ms")
	put("workload.byname_ms", ls.selfMs("workload.byname"), "ms")
	put("experiments.build_models_ms", ls.selfMs("experiments.build_models"), "ms")
	put("experiments.bundle_models_ms", ls.selfMs("experiments.bundle_models"), "ms")
	put("classify.trace_ms", ls.selfMs("classify.trace"), "ms")
	put("preprocess.stages_ms", ls.selfMs("preprocess.stages"), "ms")
	put("preprocess.alloc_mb", ls.allocMB("preprocess.stages"), "MB")
	for _, n := range traceSizes {
		var v []float64
		for _, id := range ls.ids {
			if u := ls.use[id]["preprocess.stages"]; u != nil && u.count == n {
				v = append(v, float64(u.selfNs)/float64(n))
			}
		}
		put(fmt.Sprintf("preprocess.ns_per_op.%dops", n), median(v).Value, "ns")
	}
	var stages []float64
	for _, p := range pairs {
		if !p.r.cached && ls.phase[p.o.req.ID] == ls.preferred("preprocess.stages") {
			stages = append(stages, float64(p.r.resp.Stages))
		}
	}
	put("preprocess.stage_count", median(stages).Value, "count")
	put("core.evaluator_ms", ls.perCall("core.evaluator"), "ms")
	put("core.predict_us", 1e3*ls.perCall("core.predict"), "us")
	put("ga.search_ms", ls.selfMs("ga.search"), "ms")
	var evals, rate []float64
	for _, u := range ls.uses("ga.search") {
		evals = append(evals, float64(u.count))
		rate = append(rate, float64(u.count)/(float64(u.callNs[0])/1e9))
	}
	put("ga.evaluations", median(evals).Value, "count")
	put("ga.evals_per_s", median(rate).Value, "1/s")
	put("ga.islands", h.m1["dvfsd_ga_islands"], "count")
	put("replay.other_ms", ls.selfMs(otherSpans...), "ms")

	// GC over the HTTP window.
	put("gc.cycles", float64(h.r1.gcCycles-h.r0.gcCycles), "count")
	put("gc.pause_p99_ms", tail(gcPauses(h.r0, h.r1), 99).Value, "ms")
	frac := 0.0
	if cpu := h.r1.totalCPU - h.r0.totalCPU; cpu > 0 {
		frac = (h.r1.gcCPU - h.r0.gcCPU) / cpu
	}
	put("gc.cpu_frac", frac, "ratio")
	put("gen.late_p99_ms", e.lateP99.Value, "ms")

	// Accounting for the primary class: the layers' median self times
	// plus the unattributed time against the HTTP median.
	acct := &accounting{Class: class, LayerMedianMs: map[string]float64{}, Requests: len(unattr)}
	acct.HTTPp50Ms = median(httpLat).Value
	names := map[string]bool{}
	for _, o := range primary {
		if r := byOutcome[o]; r != nil {
			for n := range ls.use[o.req.ID] {
				names[n] = true
			}
		}
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		var v []float64
		for _, o := range primary {
			if r := byOutcome[o]; r != nil {
				if u := ls.use[o.req.ID][n]; u != nil {
					v = append(v, float64(u.selfNs)/1e6)
				}
			}
		}
		acct.LayerMedianMs[n] = median(v).Value
		acct.LayersSumMs += median(v).Value
	}
	acct.UnattributedMs = median(unattr).Value
	acct.ResidualMs = acct.HTTPp50Ms - acct.LayersSumMs - acct.UnattributedMs
	return m, acct
}
