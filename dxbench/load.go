package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/server/api"
	"repro/internal/server/client"
)

// conn is one load-generator connection: a client per fleet member, each
// over its own transport, so the two clients of a run never share a TCP
// connection.
type conn struct {
	clients []*client.Client
}

func newConn(f *fleet) *conn {
	c := &conn{}
	for _, p := range f.procs {
		cl := client.New(p.url)
		cl.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}}
		c.clients = append(c.clients, cl)
	}
	return c
}

func (c *conn) close() {
	for _, cl := range c.clients {
		cl.HTTPClient.CloseIdleConnections()
	}
}

var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// send issues one request and reads the whole response.
func (c *conn) send(node int, method, path string, body []byte) (code int, xcache string, resp []byte, err error) {
	r, err := c.clients[node].Forward(context.Background(), method, path, jsonHeader, body)
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Cache"), resp, err
}

// request is an op resolved against a fleet: target member, route, body.
type request struct {
	node   int
	method string
	path   string
	body   []byte
}

func resolve(f *fleet, p *plan, ops []op) []request {
	rs := make([]request, len(ops))
	for i, o := range ops {
		m, path := p.route(o)
		rs[i] = request{node: f.node(p, o), method: m, path: path, body: p.body(o)}
	}
	return rs
}

// setup starts a fresh fleet and registers the plan's scenarios, on a
// cluster after placing them (which renames them). It returns the fleet
// and the time from process start to the last registration.
func setup(bin, dir string, p *plan) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(bin, dir, p.Nodes, p.Durable)
	if err != nil {
		return nil, 0, err
	}
	if f.ring != nil {
		f.place(p)
	}
	c := newConn(f)
	defer c.close()
	fail := func(err error) (*fleet, time.Duration, error) {
		f.stop()
		return nil, 0, err
	}
	for _, s := range p.Scenarios {
		info, err := c.clients[f.owner(s.Name)].Register(context.Background(),
			api.RegisterRequest{Name: s.Name, Setting: s.Setting, Source: s.Source})
		if err != nil {
			return fail(fmt.Errorf("registering %s: %w", s.Name, err))
		}
		if info.Existing || info.Version != initialVersion(s) {
			return fail(fmt.Errorf("registering %s: unexpected info %+v", s.Name, info))
		}
	}
	return f, time.Since(t0), nil
}

// sample is the outcome of one timed request.
type sample struct {
	code  int
	cache string
	lat   time.Duration
	at    time.Duration // completion time, from the start of the phase
	body  []byte
	err   error
}

// runLoop sends ops (the warm-up or the timed schedule) as a closed loop of two clients: each
// sends its next request only after reading the previous response. The
// clients advance in lock-step: both send their n-th op together, and
// neither sends its next one until both have their replies. Their n-th ops
// are of one class and near-equal cost, so a cheap op's latency is never
// set by how much of a dear op of the other client it happened to overlap.
// It returns one sample per op, in the order of ops, and the wall time of
// the phase.
func runLoop(f *fleet, p *plan, ops []op) ([]sample, time.Duration) {
	reqs := resolve(f, p, ops)
	var byClient [2][]int
	for i, o := range ops {
		byClient[o.Client] = append(byClient[o.Client], i)
	}
	if len(byClient[0]) != len(byClient[1]) {
		panic("plan: the clients' schedules differ in length")
	}
	samples := make([]sample, len(ops))
	var conns [2]*conn
	for k := range conns {
		conns[k] = newConn(f)
		defer conns[k].close()
	}
	// arrived[k] carries client k's signal that it has its reply for the
	// current step.
	arrived := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int, c *conn, ids []int) {
			defer wg.Done()
			for _, i := range ids {
				r := reqs[i]
				t := time.Now()
				code, xc, body, err := c.send(r.node, r.method, r.path, r.body)
				end := time.Now()
				samples[i] = sample{code: code, cache: xc, lat: end.Sub(t), at: end.Sub(t0), body: body, err: err}
				arrived[k] <- struct{}{}
				<-arrived[1-k]
			}
		}(k, conns[k], byClient[k])
	}
	wg.Wait()
	return samples, time.Since(t0)
}
