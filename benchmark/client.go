package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// rounds is how many equal consecutive parts a timed section is cut
// into; a metric's value is the median of its per-round values.
const rounds = 5

// verifyEvery is how often a response is decoded and checked in full;
// every response has its status checked.
const verifyEvery = 64

// conn is one HTTP/1.1 keep-alive connection. It writes pre-built request
// bytes and reads the reply with net/http's own response parser, without
// http.Transport's goroutines between the clock and the socket.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// do sends one request and reads the whole reply. The body is valid
// until the next call, and is only kept when keep is set.
func (c *conn) do(wire []byte, keep bool) (status int, body []byte, err error) {
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if !keep {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	return resp.StatusCode, c.body.Bytes(), err
}

func (c *conn) close() { _ = c.c.Close() }

// searchReply is the part of a /search response the checks read.
type searchReply struct {
	Results []struct {
		SnippetError string `json:"snippet_error"`
	} `json:"results"`
}

// checkSearch decodes a /search body and applies the per-response
// checks: valid JSON, no snippet_error, and results present when the
// warm-up pass saw results for the same request.
func checkSearch(body []byte, wantResults bool) error {
	var r searchReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	if wantResults && len(r.Results) == 0 {
		return fmt.Errorf("no results where the warm-up pass had some")
	}
	for _, res := range r.Results {
		if res.SnippetError != "" {
			return fmt.Errorf("snippet_error: %s", res.SnippetError)
		}
	}
	return nil
}

// sample is the latency of one successful request, with its position in
// the timed list.
type sample struct{ pos, ns int64 }

// nsBelow returns the latencies of the samples at positions below limit.
func nsBelow(samples []sample, limit int64) []int64 {
	out := make([]int64, 0, len(samples))
	for _, s := range samples {
		if s.pos < limit {
			out = append(out, s.ns)
		}
	}
	return out
}

// roundStats is what one round of a timed section measured.
type roundStats struct {
	ops    int      // requests started in the round
	search []sample // each successful /search
	write  []sample // each successful /feedback
}

// section is one timed section.
type section struct {
	rounds    [rounds]roundStats
	roundDur  time.Duration
	attempted int
	failed    int
	firstErr  error
	next      int64 // schedule position after the last request sent
}

func (s *section) ops() int {
	n := 0
	for i := range s.rounds {
		n += s.rounds[i].ops
	}
	return n
}

// searches and writes are the section's samples across all rounds.
func (s *section) searches() (out []sample) {
	for i := range s.rounds {
		out = append(out, s.rounds[i].search...)
	}
	return out
}

func (s *section) writes() (out []sample) {
	for i := range s.rounds {
		out = append(out, s.rounds[i].write...)
	}
	return out
}

// tracedPosition says whether the traced run records a span for the
// request at pos: every other block of 64 positions, so that traced and
// untraced requests alternate many times a second and meet the same
// machine.
func tracedPosition(pos int64) bool { return pos>>6&1 == 1 }

// clients is how many closed-loop clients drive sodad: one per core and
// never more, so that a client never waits for a core the server holds.
func clients() int { return min(2, runtime.NumCPU()) }

// drive runs a closed loop against addr for dur: each client holds one
// keep-alive connection and sends its next request only when the last
// one has been answered in full. The clients draw from one shared
// position in the schedule, starting at from and cycling, so the requests
// sent are always a contiguous stretch of the seeded list. hasResults
// says, per request, whether the warm-up pass got results. atBoundary is
// called at the start of every round and at the end of the last. With
// tracers, one per client, a span is recorded around every request at a
// traced position.
func drive(addr string, in *inputs, from int64, dur time.Duration, hasResults []bool, tracers []*tracer, atBoundary func(round int)) (*section, error) {
	n := clients()
	conns := make([]*conn, 0, n)
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	for len(conns) < n {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
	}
	sec := &section{roundDur: dur / rounds}
	var next atomic.Int64
	next.Store(from)
	per := make([]section, n)
	start := time.Now()
	deadline := start.Add(sec.roundDur * rounds)
	var wg sync.WaitGroup
	for ci := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, out := conns[ci], &per[ci]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				pos := next.Add(1) - 1
				ri := in.schedule[pos%int64(len(in.schedule))]
				rq := &in.reqs[ri]
				verify := pos%verifyEvery == 0 && !rq.isWrite()
				status, body, err := c.do(rq.wire, verify)
				t1 := time.Now()
				r := min(int(t0.Sub(start)/sec.roundDur), rounds-1)
				if tracers != nil && tracedPosition(pos) {
					tracers[ci].add(spClient, pos, t0, t1)
				}
				round := &out.rounds[r]
				round.ops++
				out.attempted++
				switch {
				case err != nil:
					// The connection's state is unknown: start a new one.
					c.close()
					if c2, derr := dial(addr); derr == nil {
						conns[ci], c = c2, c2
					}
				case status < 200 || status > 299:
					err = fmt.Errorf("%s: status %d", rq.path, status)
				case verify:
					err = checkSearch(body, hasResults[ri])
				}
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("request %d (%s): %w", pos, rq.body, err)
					}
					continue // a failed request is in no latency sample
				}
				if rq.isWrite() {
					round.write = append(round.write, sample{pos, int64(t1.Sub(t0))})
				} else {
					round.search = append(round.search, sample{pos, int64(t1.Sub(t0))})
				}
			}
		}()
	}
	for r := 0; r <= rounds; r++ {
		time.Sleep(time.Until(start.Add(time.Duration(r) * sec.roundDur)))
		atBoundary(r)
	}
	wg.Wait()
	for i := range per {
		for r := range per[i].rounds {
			sec.rounds[r].ops += per[i].rounds[r].ops
			sec.rounds[r].search = append(sec.rounds[r].search, per[i].rounds[r].search...)
			sec.rounds[r].write = append(sec.rounds[r].write, per[i].rounds[r].write...)
		}
		sec.attempted += per[i].attempted
		sec.failed += per[i].failed
		if sec.firstErr == nil {
			sec.firstErr = per[i].firstErr
		}
	}
	sec.next = next.Load()
	return sec, nil
}

// warmUp sends the warm-up pass once, in order, split across the
// clients, and reports which of reqs returned results. Any failure
// aborts: a daemon that cannot answer its warm-up is not measured.
func warmUp(addr string, in *inputs) (hasResults []bool, err error) {
	hasResults = make([]bool, len(in.reqs))
	n := clients()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dial(addr)
			if err != nil {
				errs[ci] = err
				return
			}
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.warm) {
					return
				}
				status, body, err := c.do(in.warm[i].wire, true)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				var r searchReply
				if err == nil {
					err = json.Unmarshal(body, &r)
				}
				if err != nil {
					errs[ci] = fmt.Errorf("warm-up request %s: %w", in.warm[i].body, err)
					return
				}
				if i < in.primed {
					hasResults[i] = len(r.Results) > 0
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return hasResults, nil
}
