package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Poll schedule after a 202: the first GET goes about pollFirst later
// (see makeReq), then the interval grows by half up to pollCap. It is
// fixed so that every commit is polled identically.
const (
	pollFirst   = 500 * time.Microsecond
	pollCap     = 10 * time.Millisecond
	jobDeadline = 60 * time.Second
	// openInflight bounds the open loop's concurrent requests. When it
	// is exhausted the dispatcher waits, and the wait shows as lag.
	openInflight = 1024
)

// client is the load generator's HTTP side: at most conns keep-alive
// connections to one daemon.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: jobDeadline}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome records one request from the time it was due to the time its
// terminal status was visible.
type outcome struct {
	req   genReq
	due   time.Time
	sent  time.Time
	end   time.Time
	code  int // status of POST /solve; 0 when the request never got one
	id    string
	polls int
	job   *serve.Job // terminal snapshot, when one was seen
	err   error
}

// latency is the time from due to a visible terminal status.
func (o *outcome) latency() time.Duration { return o.end.Sub(o.due) }

func terminal(s serve.Status) bool {
	return s == serve.StatusDone || s == serve.StatusFailed || s == serve.StatusRejected
}

// get fetches one job snapshot. A non-200 answer returns the code with
// a nil job.
func (c *client) get(id string) (*serve.Job, int, error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, nil
	}
	var j serve.Job
	if err := json.Unmarshal(body, &j); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("decode job %s: %w", id, err)
	}
	return &j, resp.StatusCode, nil
}

// do submits o.req and polls until the job is terminal. The caller
// sets o.due and o.sent.
func (c *client) do(o *outcome) {
	defer func() { o.end = time.Now() }()
	resp, err := c.hc.Post(c.base+"/solve", "application/json", bytes.NewReader(o.req.body))
	if err != nil {
		o.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.code = resp.StatusCode
	if err != nil {
		o.err = err
		return
	}
	if o.code != http.StatusAccepted {
		return
	}
	var acc serve.Job
	if err := json.Unmarshal(body, &acc); err != nil {
		o.err = fmt.Errorf("decode 202: %w", err)
		return
	}
	o.id = acc.ID
	o.job, o.polls, o.err = c.await(o.id, o.req.firstPoll)
}

// await polls job id on the fixed schedule, starting first after the
// call, until it is terminal.
func (c *client) await(id string, first time.Duration) (*serve.Job, int, error) {
	wait, polls := first, 0
	stop := time.Now().Add(jobDeadline)
	for time.Now().Before(stop) {
		time.Sleep(wait)
		wait = min(wait*3/2, pollCap)
		j, code, err := c.get(id)
		polls++
		if err != nil {
			return nil, polls, err
		}
		if code != http.StatusOK {
			return nil, polls, fmt.Errorf("GET /jobs/%s: status %d", id, code)
		}
		if terminal(j.Status) {
			return j, polls, nil
		}
	}
	return nil, polls, fmt.Errorf("job %s not terminal after %v", id, jobDeadline)
}

// closedLoop runs callers blocking callers, each sending the next
// request of the stream as soon as its previous one is terminal, until
// d has passed and each has sent at least one (d = 0: until count
// requests have been sent).
func closedLoop(c *client, src source, stream, callers int, d time.Duration, count int) []outcome {
	var next atomic.Int64
	t0 := time.Now()
	per := make([][]outcome, callers)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if d > 0 && len(per[k]) > 0 && time.Since(t0) >= d || d == 0 && i >= count {
					return
				}
				now := time.Now()
				o := outcome{req: src(stream, i), due: now, sent: now}
				c.do(&o)
				per[k] = append(per[k], o)
			}
		}(k)
	}
	wg.Wait()
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// openLoop sends n requests at rate per second, whether or not earlier
// ones have finished. Request i is due at a seeded uniform point of the
// i-th 1/rate slot: the mean rate of a Poisson schedule with bounded
// bursts, so that a workload with a few dozen requests per run measures
// the system rather than how its arrivals happened to bunch. Requests
// are generated before the schedule starts so generation never delays
// a send.
func openLoop(c *client, src source, seed int64, rate float64, n int) []outcome {
	out := make([]outcome, n)
	for i := range out {
		out[i].req = src(streamOpen, i)
	}
	r := rand.New(rand.NewPCG(uint64(seed), streamOpen))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	sem := make(chan struct{}, openInflight)
	var wg sync.WaitGroup
	slot := float64(time.Second) / rate
	start := time.Now()
	for i := range out {
		due := start.Add(time.Duration((float64(i) + r.Float64()) * slot))
		sleepUntil(due)
		out[i].due = due
		sem <- struct{}{}
		out[i].sent = time.Now()
		wg.Add(1)
		go func(o *outcome) {
			defer func() { <-sem; wg.Done() }()
			c.do(o)
		}(&out[i])
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling goroutine's OS thread until t. The
// runtime's timers wake a sleeping goroutine with up to a millisecond of
// slack on Linux, which would show as generator lag; nanosleep on a
// locked thread wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
	}
}
