package main

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	apiclient "npudvfs/internal/server/client"
	"npudvfs/internal/traceio"
)

// pollEvery is the job-status polling interval. It bounds how much a
// cold latency can overstate the daemon's time.
const pollEvery = 5 * time.Millisecond

// scrapeEvery is the /metrics scrape cadence.
const scrapeEvery = time.Second

// client drives the daemon over loopback HTTP with at most conns
// connections. Polls and scrapes go through the repo's client; only the
// submit, which sends a pre-encoded body, is the benchmark's own.
type client struct {
	api *apiclient.Client
	hc  *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	return &client{api: &apiclient.Client{BaseURL: base, HTTP: hc}, hc: hc}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is what the client saw of one request.
type outcome struct {
	req *request
	// due is when the request was scheduled; sent, posted and done are
	// when the POST went out, when its response arrived and when the
	// job was seen in a terminal state.
	due, sent, posted, done time.Time
	code                    int
	polls                   int
	// status is the last job status seen. Once terminal, its strategy
	// is replaced by digest, so the run's outcomes hold no strategies
	// and live_heap_mb measures the daemon, not the client.
	status *traceio.JobStatus
	digest [sha256.Size]byte
	err    error
}

// settle records the terminal status st, seen at time done.
func (o *outcome) settle(st *traceio.JobStatus, done time.Time) {
	o.status, o.done = st, done
	if st.Result == nil {
		return
	}
	b, err := compactRaw(st.Result.Strategy)
	if err != nil {
		o.err = err
		return
	}
	o.digest = sha256.Sum256(b)
	st.Result.Strategy = nil
}

// latency is the user-visible time of the request: due to response
// for a hit, due to the first poll that saw a terminal state for a
// cold job.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// cached reports whether the daemon answered from its strategy cache.
func (o *outcome) cached() bool { return o.code == http.StatusOK }

// ok reports whether the request completed with a strategy.
func (o *outcome) ok() bool {
	return o.err == nil && o.status != nil && o.status.State == traceio.JobDone && o.status.Result != nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// post submits the request and records the response.
func (c *client) post(o *outcome) {
	rd, n := o.req.body()
	hr, err := http.NewRequest(http.MethodPost, c.api.BaseURL+"/v1/strategies", rd)
	if err != nil {
		o.err = err
		return
	}
	hr.ContentLength = n
	hr.Header.Set("Content-Type", "application/json")
	o.sent = time.Now()
	var st traceio.JobStatus
	o.code, o.err = c.submit(hr, &st)
	o.posted = time.Now()
	if o.err != nil {
		return
	}
	switch o.code {
	case http.StatusOK:
		o.settle(&st, o.posted)
	case http.StatusAccepted:
		o.status = &st
	default:
		o.err = fmt.Errorf("POST answered %d", o.code)
	}
}

// submit sends the POST and decodes a 2xx body into st.
func (c *client) submit(hr *http.Request, st *traceio.JobStatus) (int, error) {
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(body, st); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding submit response: %w", err)
	}
	return resp.StatusCode, nil
}

// poll reads the job once; it reports whether the job is terminal.
func (c *client) poll(o *outcome) bool {
	st, err := c.api.Job(context.Background(), o.status.ID)
	o.polls++
	switch {
	case err != nil:
		o.err = err
	case traceio.IsTerminal(st.State):
		o.settle(st, time.Now())
	default:
		return false
	}
	return true
}

// run submits a request and polls it to a terminal state.
func (c *client) run(r *request, due time.Time) *outcome {
	o := &outcome{req: r, due: due}
	c.post(o)
	if o.err != nil || o.code != http.StatusAccepted {
		return o
	}
	for {
		time.Sleep(pollEvery)
		if c.poll(o) {
			return o
		}
	}
}

// promSample is one /metrics scrape: series (with labels) to value.
type promSample map[string]float64

func (c *client) scrape() (promSample, error) {
	text, err := c.api.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// scrapeLog records the timed /metrics scrapes.
type scrapeLog struct {
	mu   sync.Mutex
	ms   []float64 // round-trip times
	late []float64 // start minus scheduled time
	err  error
}

func (l *scrapeLog) add(c *client, at time.Time) {
	start := time.Now()
	_, err := c.scrape()
	d := time.Since(start)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ms = append(l.ms, ms(d))
	l.late = append(l.late, ms(start.Sub(at)))
	if err != nil && l.err == nil {
		l.err = err
	}
}

// scrapeUntil scrapes /metrics once per scrapeEvery from start until
// stop is closed.
func (l *scrapeLog) scrapeUntil(c *client, start time.Time, stop <-chan struct{}) {
	for at := start.Add(scrapeEvery); ; at = at.Add(scrapeEvery) {
		t := time.NewTimer(time.Until(at))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		l.add(c, at)
	}
}

// closedLoop runs cold-gpt3: one client sends its next request when the
// previous one completes, until the window has passed. A second
// goroutine scrapes /metrics.
func closedLoop(c *client, p *plan, window time.Duration) ([]*outcome, *scrapeLog) {
	log := &scrapeLog{}
	stop := make(chan struct{})
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		log.scrapeUntil(c, start, stop)
	}()
	var outs []*outcome
	for time.Since(start) < window {
		outs = append(outs, c.run(p.nextCold(), time.Now()))
	}
	close(stop)
	wg.Wait()
	return outs, log
}

// Open-loop action kinds.
const (
	actSubmit = iota
	actPoll
	actScrape
)

type action struct {
	at   time.Time
	seq  int
	kind int
	out  *outcome
}

type actionHeap []*action

func (h actionHeap) Len() int { return len(h) }
func (h actionHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h actionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *actionHeap) Push(x any)   { *h = append(*h, x.(*action)) }
func (h *actionHeap) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// openLoop sends requests at their due times regardless of how earlier
// ones fare. A fixed set of workers shares one schedule of submits,
// follow-up polls and /metrics scrapes; an action waits only when
// every worker is busy, and that wait counts toward its request's
// latency.
type openLoop struct {
	c    *client
	log  *scrapeLog
	mu   sync.Mutex
	h    actionHeap
	seq  int
	busy int
	wake chan struct{}
	done chan struct{}
	once sync.Once
}

func runOpenLoop(c *client, reqs []*request, window time.Duration, workers int) ([]*outcome, *scrapeLog) {
	l := &openLoop{c: c, log: &scrapeLog{}, wake: make(chan struct{}, 1), done: make(chan struct{})}
	start := time.Now()
	outs := make([]*outcome, len(reqs))
	for i, r := range reqs {
		outs[i] = &outcome{req: r, due: start.Add(r.Due)}
		l.push(&action{at: outs[i].due, kind: actSubmit, out: outs[i]})
	}
	for at := start.Add(scrapeEvery); at.Before(start.Add(window)); at = at.Add(scrapeEvery) {
		l.push(&action{at: at, kind: actScrape})
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.work()
		}()
	}
	wg.Wait()
	return outs, l.log
}

func (l *openLoop) push(a *action) {
	l.seq++
	a.seq = l.seq
	heap.Push(&l.h, a)
}

func (l *openLoop) work() {
	for {
		l.mu.Lock()
		if len(l.h) == 0 {
			idle := l.busy == 0
			l.mu.Unlock()
			if idle {
				l.once.Do(func() { close(l.done) })
				return
			}
			select {
			case <-l.wake:
			case <-l.done:
				return
			}
			continue
		}
		a := l.h[0]
		if d := time.Until(a.at); d > 0 {
			l.mu.Unlock()
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-l.wake:
				t.Stop()
			case <-l.done:
				t.Stop()
				return
			}
			continue
		}
		heap.Pop(&l.h)
		l.busy++
		l.mu.Unlock()

		next := l.do(a)

		l.mu.Lock()
		l.busy--
		if next != nil {
			l.push(next)
		}
		l.mu.Unlock()
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// do runs one action and returns the follow-up poll, if any.
func (l *openLoop) do(a *action) *action {
	switch a.kind {
	case actScrape:
		l.log.add(l.c, a.at)
		return nil
	case actSubmit:
		l.c.post(a.out)
		if a.out.err != nil || a.out.code != http.StatusAccepted {
			return nil
		}
	case actPoll:
		if l.c.poll(a.out) {
			return nil
		}
	}
	return &action{at: time.Now().Add(pollEvery), kind: actPoll, out: a.out}
}
