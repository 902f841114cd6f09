package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"npudvfs/internal/op"
	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// Workload names. README.md records why each one exists.
const (
	coldGPT3 = "cold-gpt3"
	hitNamed = "hit-named"
)

var workloadNames = []string{coldGPT3, hitNamed}

// hitNamedRate is the fixed-interval rate of hit-named, in requests
// per second. On a 2-vCPU guest 30 req/s kept about 45% of the CPU busy
// and the hit median doubled under 12% CPU steal; 20 req/s keeps the
// daemon well under half busy.
const hitNamedRate = 20.0

var (
	// namedKeys are the registry workloads warmed at set-up and hit by
	// hit-named.
	namedKeys = []string{"gpt3", "bert", "resnet50"}
	// bundled are the registry workloads hit-named's set-up fits model
	// bundles for. Its BERT and ResNet-50 warm-ups and its cold BERT
	// probes search on them, as the daemon does for a fitted model.
	bundled = []string{"bert", "resnet50"}
	// targetCycle is Table 3's loss targets, cycled by cold-gpt3.
	targetCycle = []float64{0.02, 0.04, 0.06, 0.08, 0.10}
)

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

type phase int

const (
	// phaseWarm requests run during set-up and are not timed.
	phaseWarm phase = iota
	// phaseTimed requests make up the timed window.
	phaseTimed
	// phasePost requests are probes sent after the window, one at a
	// time, for the request class the window lacks: cache hits on
	// cold-gpt3, cold searches on hit-named.
	phasePost
)

// postProbes is how many probes follow the window.
const postProbes = 20

// probes returns the requests sent after the window. cold-gpt3
// resubmits its first completed traces once each, timing inline-trace
// cache hits. hit-named runs cold BERT searches with fresh GA seeds: one
// workload, so the median is not set by where a mix of two splits.
func probes(p *plan, timed []*outcome) []*request {
	var out []*request
	switch p.name {
	case coldGPT3:
		for _, t := range timed {
			if t.ok() && len(out) < postProbes {
				out = append(out, t.req.resubmit(p.newID()))
			}
		}
	case hitNamed:
		for i := 0; i < postProbes; i++ {
			out = append(out, p.named("bert", traceio.SearchSpec{Seed: p.unique(2, 1<<31)}, phasePost, 0))
		}
	}
	return out
}

// request is one generated submission.
type request struct {
	ID    int
	Phase phase
	// Due is the send time as an offset from the window start (open
	// loops only).
	Due time.Duration
	// Named is a registry workload name; empty for an inline trace.
	Named  string
	Search traceio.SearchSpec
	// Splice is the per-request value written into the inline trace;
	// empty for named requests.
	Splice string

	tmpl *traceTemplate
	head []byte // JSON before the trace (or the whole named body)
}

// key identifies requests the daemon serves from one cache entry.
func (r *request) key() string {
	return fmt.Sprintf("%s|%s|%g|%d", r.Named, r.Splice, r.Search.TargetLoss, r.Search.Seed)
}

// body returns the request body and its length. Inline bodies are
// assembled from the shared pre-encoded trace without copying it.
func (r *request) body() (io.Reader, int64) {
	if r.tmpl == nil {
		return bytes.NewReader(r.head), int64(len(r.head))
	}
	t := r.tmpl
	n := len(r.head) + len(t.prefix) + len(r.Splice) + len(t.suffix) + 1
	return io.MultiReader(bytes.NewReader(r.head), bytes.NewReader(t.prefix),
		bytes.NewReader([]byte(r.Splice)), bytes.NewReader(t.suffix),
		bytes.NewReader([]byte{'}'})), int64(n)
}

// resubmit copies r as a post-window request with the same body.
func (r *request) resubmit(id int) *request {
	c := *r
	c.ID = id
	c.Phase = phasePost
	c.Due = 0
	return &c
}

// traceTemplate is the GPT-3 trace encoded once in the traceio wire
// format, split around one communication op's fixed_us value so every
// request can splice in its own value.
type traceTemplate struct {
	prefix, suffix []byte
	// base is the op's original fixed_us value.
	base float64
}

// spliceSentinel marks the value to cut out; it is not a duration any
// built-in workload uses.
const spliceSentinel = 987654.321

func newTraceTemplate() (*traceTemplate, error) {
	m := workload.GPT3()
	idx := -1
	for i := range m.Trace {
		if m.Trace[i].Class == op.Communication {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("gpt3 trace has no communication op")
	}
	base := m.Trace[idx].FixedTime
	m.Trace[idx].FixedTime = spliceSentinel
	var buf bytes.Buffer
	if err := traceio.WriteWorkload(&buf, m); err != nil {
		return nil, err
	}
	enc := buf.Bytes()
	mark := []byte(strconv.FormatFloat(spliceSentinel, 'f', -1, 64))
	if bytes.Count(enc, mark) != 1 {
		return nil, fmt.Errorf("splice marker not unique in the encoded trace")
	}
	// WriteWorkload ends with a newline; the body closes the object
	// right after the trace.
	i := bytes.Index(enc, mark)
	return &traceTemplate{
		prefix: enc[:i],
		suffix: bytes.TrimRight(enc[i+len(mark):], "\n"),
		base:   base,
	}, nil
}

// plan generates a workload's requests from its seed. The same seed
// gives the same sequence and bodies.
type plan struct {
	name string
	rng  *rand.Rand
	tmpl *traceTemplate
	used map[int64]bool
	next int
	cold int // cold-gpt3 requests generated so far
}

// newPlan returns the generator for a workload. tmpl is required by
// cold-gpt3 only.
func newPlan(name string, seed int64, tmpl *traceTemplate) (*plan, error) {
	if !knownWorkload(name) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if name == coldGPT3 && tmpl == nil {
		return nil, fmt.Errorf("%s needs the GPT-3 trace template", name)
	}
	return &plan{name: name, rng: rand.New(rand.NewSource(seed)), tmpl: tmpl, used: map[int64]bool{}}, nil
}

func (p *plan) newID() int {
	p.next++
	return p.next
}

// unique draws a value in [lo, hi) not drawn before by this plan.
func (p *plan) unique(lo, hi int64) int64 {
	for {
		v := lo + p.rng.Int63n(hi-lo)
		if !p.used[v] {
			p.used[v] = true
			return v
		}
	}
}

func (p *plan) named(name string, spec traceio.SearchSpec, ph phase, due time.Duration) *request {
	head, err := json.Marshal(traceio.StrategyRequest{Workload: name, Search: spec})
	if err != nil {
		panic(err) // a StrategyRequest always marshals
	}
	return &request{ID: p.newID(), Phase: ph, Due: due, Named: name, Search: spec, head: head}
}

// warmups are the set-up requests. For cold-gpt3 it is one search on
// the unspliced trace, which no timed request shares a key with. For
// the others it is each named key once, with the default spec, so
// every later request for it is a cache hit.
func (p *plan) warmups() []*request {
	if p.name == coldGPT3 {
		return []*request{p.spliced(traceio.SearchSpec{}, 0, phaseWarm)}
	}
	out := make([]*request, len(namedKeys))
	for i, n := range namedKeys {
		out[i] = p.named(n, traceio.SearchSpec{}, phaseWarm, 0)
	}
	return out
}

// nextCold returns cold-gpt3's next request: the GPT-3 trace with a
// fresh value spliced in, at the next loss target of Table 3.
func (p *plan) nextCold() *request {
	spec := traceio.SearchSpec{TargetLoss: targetCycle[p.cold%len(targetCycle)]}
	p.cold++
	return p.spliced(spec, p.unique(1, 1_000_000), phaseTimed)
}

// spliced builds an inline GPT-3 request whose communication op runs
// k nanoseconds longer than the built-in trace's.
func (p *plan) spliced(spec traceio.SearchSpec, k int64, ph phase) *request {
	search, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a SearchSpec always marshals
	}
	head := append(append([]byte(`{"search":`), search...), `,"trace":`...)
	v := p.tmpl.base + float64(k)/1000
	return &request{
		ID: p.newID(), Phase: ph, Search: spec, tmpl: p.tmpl, head: head,
		Splice: strconv.FormatFloat(v, 'f', -1, 64),
	}
}

// schedule returns hit-named's requests due within window, at a fixed
// interval. Names are dealt in equal shares in seeded order, so the
// mix, and with it the work per run, does not drift with the seed.
func (p *plan) schedule(window time.Duration) []*request {
	var dues []time.Duration
	for i := 0; ; i++ {
		due := time.Duration(float64(i) * float64(time.Second) / hitNamedRate)
		if due >= window {
			break
		}
		dues = append(dues, due)
	}
	names := p.deal(namedKeys, len(dues))
	out := make([]*request, len(dues))
	for i, due := range dues {
		out[i] = p.named(names[i], traceio.SearchSpec{}, phaseTimed, due)
	}
	return out
}

// deal returns n names in equal shares (the first n mod len(names) get
// one more), in seeded order.
func (p *plan) deal(names []string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = names[i%len(names)]
	}
	p.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
