// Command dvfsbench is the dvfsd benchmark. It boots the daemon in
// this process with its shipped defaults, drives one workload over
// loopback HTTP, checks every response, and prints one JSON result as
// the last line of standard output. With --trace 1 it then replays the
// same requests in-process through each layer's public functions and
// reports per-layer numbers instead of end-to-end ones.
//
//	bash dvfsbench/run.sh --workload hit-named --seed 7 --seconds 25 --trace 0
//
// README.md records the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets up from scratch; setup_s is
// the median.
const setupReps = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	commit   string
	spans    string
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same requests")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "1 replays the requests traced and reports per-layer metrics")
	flag.StringVar(&o.commit, "commit", "unknown", "commit recorded in the run metadata")
	flag.StringVar(&o.spans, "spans", "", "directory the traced run writes its spans to (none if empty)")
	flag.Parse()
	if !knownWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "dvfsbench: unknown workload %q (have %v)\n", o.workload, workloadNames)
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "dvfsbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rep, err := bench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvfsbench:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"run": rep.meta}); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsbench:", err)
		return 1
	}
	if rep.invalid != "" {
		fmt.Fprintln(os.Stderr, "dvfsbench: invalid run:", rep.invalid)
		return 3
	}
	if err := enc.Encode(rep.result); err != nil {
		fmt.Fprintln(os.Stderr, "dvfsbench:", err)
		return 1
	}
	return 0
}

// setup is one complete set-up: a calibrated daemon with its caches
// warm and the workload's requests generated.
type setup struct {
	d    *daemon
	plan *plan
	reqs []*request // open-loop schedule
	warm []*outcome
	dur  time.Duration
}

func setUp(o options) (*setup, error) {
	start := time.Now()
	d, err := startDaemon(o.workload != coldGPT3)
	if err != nil {
		return nil, err
	}
	st, err := prepare(o, d)
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	st.dur = time.Since(start)
	return st, nil
}

func prepare(o options, d *daemon) (*setup, error) {
	var tmpl *traceTemplate
	if o.workload == coldGPT3 {
		t, err := newTraceTemplate()
		if err != nil {
			return nil, err
		}
		tmpl = t
	}
	p, err := newPlan(o.workload, o.seed, tmpl)
	if err != nil {
		return nil, err
	}
	st := &setup{d: d, plan: p}
	c := newClient(d.url, 1)
	defer c.close()
	for _, r := range p.warmups() {
		w := c.run(r, time.Now())
		if !w.ok() {
			return nil, fmt.Errorf("warming %s: %s", r.Named, describe(w))
		}
		st.warm = append(st.warm, w)
	}
	if o.workload != coldGPT3 {
		st.reqs = p.schedule(time.Duration(o.seconds) * time.Second)
	}
	return st, nil
}

// httpRun is what the untraced HTTP run observed.
type httpRun struct {
	timed, post []*outcome
	scrapes     *scrapeLog
	late        []float64 // generator lateness, ms
	m0, m1      promSample
	r0, r1      rtSnapshot
	liveHeap    uint64
	// steal is the share of the machine's CPU time stolen by the
	// hypervisor during the window.
	steal float64
	// cpu is this process's CPU time over the window, in seconds.
	cpu float64
}

// drive runs the timed window, then the probes, and reads the live
// heap while the daemon still holds its caches.
func drive(st *setup, o options) (*httpRun, error) {
	conns := runtime.NumCPU()
	c := newClient(st.d.url, conns)
	defer c.close()
	runtime.GC()
	h := &httpRun{}
	var err error
	if h.m0, err = c.scrape(); err != nil {
		return nil, err
	}
	h.r0 = readRuntime()
	total0, steal0 := cpuStat()
	cpu0 := processCPU()
	window := time.Duration(o.seconds) * time.Second
	if o.workload == coldGPT3 {
		h.timed, h.scrapes = closedLoop(c, st.plan, window)
	} else {
		h.timed, h.scrapes = runOpenLoop(c, st.reqs, window, conns)
		for _, t := range h.timed {
			if !t.sent.IsZero() {
				h.late = append(h.late, ms(t.sent.Sub(t.due)))
			}
		}
	}
	h.late = append(h.late, h.scrapes.late...)
	h.r1 = readRuntime()
	total1, steal1 := cpuStat()
	h.cpu = processCPU() - cpu0
	h.steal = stealShare(total0, steal0, total1, steal1)
	if h.m1, err = c.scrape(); err != nil {
		return nil, err
	}
	if h.scrapes.err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", h.scrapes.err)
	}
	for _, r := range probes(st.plan, h.timed) {
		h.post = append(h.post, c.run(r, time.Now()))
	}
	runtime.GC()
	h.liveHeap = readRuntime().liveHeap
	return h, nil
}

// report is a finished run.
type report struct {
	meta    map[string]any
	result  result
	invalid string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(o options) (*report, error) {
	var (
		st     *setup
		setupS []float64
	)
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.d.close(); err != nil {
				return nil, fmt.Errorf("stopping set-up %d: %w", i, err)
			}
		}
		s, err := setUp(o)
		if err != nil {
			return nil, err
		}
		st = s
		setupS = append(setupS, s.dur.Seconds())
	}
	h, err := drive(st, o)
	if cerr := st.d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	chk := check(st, h)
	// The daemon is stopped: the replay has the machine to itself.
	rp := newReplayer(st.d.lab, st.d.bundles)
	reps, err := replay(context.Background(), rp, st, h, o.trace == 1)
	if err != nil {
		return nil, err
	}
	chk.compareReplay(reps)

	e2e := endToEnd(h, setupS)
	rep := &report{
		meta:    metadata(o, st, h, chk, e2e, setupS),
		invalid: lateCheck(o, e2e),
		result: result{
			Correct:   chk.failed() == 0,
			Attempted: len(checked(st, h)),
			Failed:    chk.failed(),
		},
	}
	if o.trace == 0 {
		rep.result.Metrics = e2e.metrics
		return rep, nil
	}
	layers, acct := perLayer(h, rp, reps, e2e)
	rep.result.Metrics = layers
	rep.meta["accounting"] = acct
	if o.spans != "" {
		if err := writeSpans(filepath.Join(o.spans, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)), rp.tr.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// describe summarises a failed outcome.
func describe(o *outcome) string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case o.status == nil:
		return "no status"
	case o.status.Error != "":
		return o.status.State + ": " + o.status.Error
	}
	return "state " + o.status.State
}
