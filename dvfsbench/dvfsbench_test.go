package main

import (
	"bytes"
	"io"
	"testing"
	"time"

	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// tmplShared is the GPT-3 template the tests share; it takes a while
// to encode.
var tmplShared *traceTemplate

func template(t *testing.T) *traceTemplate {
	t.Helper()
	if tmplShared == nil {
		tm, err := newTraceTemplate()
		if err != nil {
			t.Fatal(err)
		}
		tmplShared = tm
	}
	return tmplShared
}

// sequence returns the first requests a workload generates for a seed.
func sequence(t *testing.T, name string, seed int64) []*request {
	t.Helper()
	p, err := newPlan(name, seed, template(t))
	if err != nil {
		t.Fatal(err)
	}
	out := p.warmups()
	if name == coldGPT3 {
		for i := 0; i < 12; i++ {
			out = append(out, p.nextCold())
		}
		return out
	}
	return append(out, p.schedule(20*time.Second)...)
}

func bodyBytes(t *testing.T, r *request) []byte {
	t.Helper()
	rd, _ := r.body()
	b, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameRequests(t *testing.T, a, b []*request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Due != b[i].Due || a[i].key() != b[i].key() || !bytes.Equal(bodyBytes(t, a[i]), bodyBytes(t, b[i])) {
			return false
		}
	}
	return true
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames {
		a, b := sequence(t, name, 7), sequence(t, name, 7)
		if !sameRequests(t, a, b) {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
	}
}

func TestDifferentSeedDifferentRequests(t *testing.T) {
	for _, name := range workloadNames {
		if sameRequests(t, sequence(t, name, 7), sequence(t, name, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	hits := sequence(t, hitNamed, 3)[len(namedKeys):]
	if want := int(20 * hitNamedRate); len(hits) != want {
		t.Errorf("hit-named: %d requests in 20 s, want %d", len(hits), want)
	}
}

// resolve decodes a request body the way the daemon does.
func resolve(t *testing.T, r *request) traceio.StrategyRequest {
	t.Helper()
	var req traceio.StrategyRequest
	if err := decodeStrict(bodyBytes(t, r), &req); err != nil {
		t.Fatalf("request %d: %v", r.ID, err)
	}
	return req
}

func TestSpliceKeepsOpsAndClassesAndChangesFingerprint(t *testing.T) {
	base := workload.GPT3()
	baseFP := traceio.Fingerprint(base.Trace)
	seq := sequence(t, coldGPT3, 5)
	fps := map[string]bool{}
	for i, r := range seq {
		req := resolve(t, r)
		m, err := req.Resolve()
		if err != nil {
			t.Fatalf("request %d: %v", r.ID, err)
		}
		if len(m.Trace) != len(base.Trace) {
			t.Fatalf("request %d: %d ops, want %d", r.ID, len(m.Trace), len(base.Trace))
		}
		for j := range m.Trace {
			if m.Trace[j].Class != base.Trace[j].Class {
				t.Fatalf("request %d: op %d class %v, want %v", r.ID, j, m.Trace[j].Class, base.Trace[j].Class)
			}
		}
		fp := traceio.Fingerprint(m.Trace)
		if i == 0 {
			// The warm-up carries the trace unchanged.
			if fp != baseFP {
				t.Errorf("warm-up fingerprint differs from the built-in GPT-3 trace")
			}
			continue
		}
		if fp == baseFP || fps[fp] {
			t.Errorf("request %d: spliced trace does not have a fresh fingerprint", r.ID)
		}
		fps[fp] = true
	}
}

func TestNearestRankPercentiles(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: the helpers must sort
		}
		return v
	}
	cases := []struct {
		name     string
		n        int
		p        float64
		want     float64
		wantPct  float64
		isMedian bool
	}{
		{"median of odd count", 5, 50, 3, 50, true},
		{"median of even count", 10, 50, 5, 50, true},
		{"p90 with ten beyond", 100, 90, 90, 90, false},
		{"p95 falls back to ten beyond", 100, 95, 90, 90, false},
		{"p99 over 1000", 1000, 99, 990, 99, false},
		{"p99 over 999 falls back", 999, 99, 989, 100 * 989.0 / 999, false},
		{"p90 over 20 floors at the median", 20, 90, 10, 50, false},
		{"single sample", 1, 99, 1, 100, false},
	}
	for _, c := range cases {
		var q quantile
		if c.isMedian {
			q = median(seq(c.n))
		} else {
			q = tail(seq(c.n), c.p)
		}
		if q.Value != c.want || q.N != c.n || q.Pct < c.wantPct-1e-9 || q.Pct > c.wantPct+1e-9 {
			t.Errorf("%s: got %+v, want value %g at p%g over %d", c.name, q, c.want, c.wantPct, c.n)
		}
	}
}
