// Command dxbench is the request-level benchmark of dxserver. It starts
// dxserver as child processes, replays a seeded, deterministic schedule of
// operations as a closed loop of two client connections, verifies every
// response against answers computed in-process, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced in-process
// replay plus /metricsz counter deltas). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through dxbench/run.sh, which builds
// dxserver and this command first:
//
//	bash dxbench/run.sh --workload mutate-read --seed 1 --seconds 10 --trace 0
//	bash dxbench/run.sh --workload cold-query --seed 1 --seconds 10 --repeat 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string // dxserver binary
	work     string // scratch directory for logs, data dirs and traces
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets up a fresh fleet at least minSetups times, and more while the
// set-ups together took less than setupFloor, up to maxSetups; setup_s is
// the median, and the last fleet serves the timed phase. A workload with
// few scenarios sets up in about 10 ms, which one scheduler hiccup can
// double, so it gets more set-ups.
const (
	minSetups  = 3
	maxSetups  = 31
	setupFloor = time.Second
)

// tailQuantile is the upper percentile reported per class: the highest of
// p90 and p75 that stays off the boundary between the class's two cost
// modes. About 5-10% of the cheap instance reads (0.3 ms) overlap the mark
// phase of a server garbage collection and take 2-5 ms, so their p90 falls
// on that boundary and swings with the share; certain reads and writes
// have no such gap below their p90.
var tailQuantile = map[string]float64{classCertain: 0.90, classInstance: 0.75, classWrite: 0.90}

func main() {
	var cfg runConfig
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-query, mutate-read or forwarded-query")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the timed phase; sizes the schedule")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.server, "server", ".bench_build/dxserver", "dxserver binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for server logs, data directories and traces")
	flag.IntVar(&repeat, "repeat", 0, "steadiness report: run the workload this many times and print each metric's spread")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "dxbench: need -workload (one of cold-query, mutate-read, forwarded-query) and -seconds >= 1\n")
		os.Exit(2)
	}
	if repeat > 0 {
		ok, err := steadiness(os.Stdout, cfg, repeat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dxbench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, err := run(os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dxbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dxbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and writes a human-readable report to w.
func run(w io.Writer, cfg runConfig) (*result, error) {
	// phases records the wall time of each step of the run, for the report.
	var phases []string
	mark := time.Now()
	lap := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %.2fs", name, time.Since(mark).Seconds()))
		mark = time.Now()
	}
	p, err := makePlan(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	or, err := newOracle(p)
	if err != nil {
		return nil, err
	}
	if err := or.checkPlan(); err != nil {
		return nil, err
	}
	lap("plan+expectations")
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setupSecs []float64
	var f *fleet
	for i, total := 0, time.Duration(0); ; i++ {
		sub := filepath.Join(dir, fmt.Sprint(i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		fl, d, err := setup(cfg.server, sub, p)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, d.Seconds())
		total += d
		if i+1 >= maxSetups || (i+1 >= minSetups && total >= setupFloor) {
			f = fl
			break
		}
		fl.stop()
	}
	stopped := false
	stop := func() {
		if !stopped {
			f.stop()
			stopped = true
		}
	}
	defer stop()
	lap("setups")

	// The warm-up fills the result cache, so the timed phase runs in the
	// steady state where every miss evicts an entry and a write's purge
	// scans a full cache. It is verified like the timed phase but neither
	// timed nor counted.
	warm, _ := runLoop(f, p, p.Warmup)
	for i, o := range p.Warmup {
		s := warm[i]
		verr := s.err
		if verr == nil {
			verr = or.verify(o, s.code, s.cache, s.body)
		}
		if verr != nil {
			return nil, fmt.Errorf("warm-up: %w", verr)
		}
	}
	lap("warm-up")

	before, err := f.scrape()
	if err != nil {
		return nil, err
	}
	st0, err := f.stat()
	if err != nil {
		return nil, err
	}
	samples, wall := runLoop(f, p, p.Ops)
	lap("timed")
	st1, err := f.stat()
	if err != nil {
		return nil, err
	}
	after, err := f.scrape()
	if err != nil {
		return nil, err
	}
	var hop, replica float64
	if cfg.trace && p.Nodes > 1 {
		if hop, replica, err = forwardHop(f, p); err != nil {
			return nil, err
		}
	}
	stop()

	// Verification happens after the timed phase so it never competes with
	// the server for CPU.
	res := &result{Correct: true, Attempted: len(p.Ops), Metrics: map[string]metric{}}
	lat := map[string][]float64{}
	attempted, succeeded := map[string]int{}, map[string]int{}
	xcache := map[string]int{}
	ok2xx := 0
	for i, o := range p.Ops {
		s := samples[i]
		attempted[o.Class]++
		if s.cache != "" {
			xcache[s.cache]++
		}
		verr := s.err
		if verr == nil {
			verr = or.verify(o, s.code, s.cache, s.body)
		}
		if verr != nil {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintf(os.Stderr, "dxbench: %s op %d failed: %v\n", cfg.workload, o.ID, verr)
			}
			continue
		}
		if s.code/100 == 2 {
			ok2xx++
			succeeded[o.Class]++
			lat[o.Class] = append(lat[o.Class], float64(s.lat)/float64(time.Millisecond))
		}
	}
	res.Correct = res.Failed == 0
	lap("verify")
	fmt.Fprintf(w, "phases: %s\n", strings.Join(phases, ", "))
	for _, c := range classes {
		xs := sorted(lat[c])
		fmt.Fprintf(w, "class %-8s attempted %6d  succeeded %6d  ms p50 %.4f p75 %.4f p90 %.4f p95 %.4f p99 %.4f\n",
			c, attempted[c], succeeded[c], quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.9), quantile(xs, 0.95), quantile(xs, 0.99))
	}
	printGroups(w, p, samples)
	printWindows(w, samples)
	fmt.Fprintf(w, "X-Cache outcomes: %v\n", xcache)
	fmt.Fprintf(w, "workload %s seed %d seconds %d: %d ops in %.3fs\n", cfg.workload, cfg.seed, cfg.seconds, len(p.Ops), wall.Seconds())

	if !cfg.trace {
		m := res.Metrics
		m["setup_s"] = metric{median(setupSecs), "s"}
		m["throughput_ops"] = metric{float64(ok2xx) / wall.Seconds(), "1/s"}
		m["success_ratio"] = metric{float64(ok2xx) / float64(len(p.Ops)), "ratio"}
		for _, c := range []string{classCertain, classInstance, classWrite} {
			xs := sorted(lat[c])
			if len(xs) == 0 {
				return nil, fmt.Errorf("workload %s has no successful %s ops", cfg.workload, c)
			}
			m[c+"_p50_ms"] = metric{quantile(xs, 0.50), "ms"}
			q := tailQuantile[c]
			m[fmt.Sprintf("%s_p%.0f_ms", c, q*100)] = metric{quantile(xs, q), "ms"}
		}
		m["server_cpu_ms_per_op"] = metric{float64(st1.cpu-st0.cpu) / float64(time.Millisecond) / float64(len(p.Ops)), "ms"}
		m["server_rss_mb"] = metric{float64(st1.hwmKB) / 1024, "MiB"}
		printMetrics(w, m)
		return res, nil
	}

	tracePath := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	tr, handler, err := tracedReplay(p, or, dir, tracePath)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "traced replay: %d spans written to %s\n", len(tr.spans), tracePath)
	res.Metrics = layerMetrics(p, tr, handler, lat, xcache, attempted, before, after, hop, replica)
	printMetrics(w, res.Metrics)
	return res, nil
}

// hopProbeOps bounds the forward-hop probe.
const hopProbeOps = 200

// forwardHop re-sends the first certain reads of the timed phase, each
// once through the non-owner and once straight to the owner, alternating.
// Both members now hold the result: the owner in its result cache, the
// non-owner as a replica it revalidates with the owner (304). It returns
// the difference of the median latencies in microseconds — the cost of
// one forward hop — and the share of non-owner re-reads served from the
// replica (X-Cache: cluster-hit).
func forwardHop(f *fleet, p *plan) (hopUs, replicaRatio float64, err error) {
	c := newConn(f)
	defer c.close()
	var via, direct []float64
	hits := 0
	for _, o := range p.Ops {
		if o.Class != classCertain || len(via) == hopProbeOps {
			continue
		}
		m, path := p.route(o)
		body := p.body(o)
		owner := f.owner(p.Scenarios[o.Scen].Name)
		for _, n := range []int{1 - owner, owner} {
			t := time.Now()
			code, xc, _, err := c.send(n, m, path, body)
			d := float64(time.Since(t)) / float64(time.Microsecond)
			if err != nil || code != http.StatusOK {
				return 0, 0, fmt.Errorf("forward-hop probe op %d: status %d: %v", o.ID, code, err)
			}
			if n == owner {
				direct = append(direct, d)
			} else {
				via = append(via, d)
				if xc == "cluster-hit" {
					hits++
				}
			}
		}
	}
	return median(via) - median(direct), ratio(float64(hits), float64(len(via))), nil
}

// delta is the change of a /metricsz counter over the timed phase.
func delta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics: self times from the traced
// replay, per-op counter deltas and X-Cache counts from the untraced
// timed phase.
func layerMetrics(p *plan, tr *tracer, handler map[string][]time.Duration, lat map[string][]float64,
	xcache map[string]int, attempted map[string]int, before, after map[string]int64, hop, replica float64) map[string]metric {
	m := map[string]metric{}
	self := tr.selfTimes()
	us := func(name, span string) {
		v := 0.0
		if ds := self[span]; len(ds) > 0 {
			v = median(micros(ds))
		}
		m[name] = metric{v, "us"}
	}
	for _, c := range []string{classCertain, classInstance, classWrite} {
		us("server.handler_us."+c, "server.handler."+c)
	}
	loop := 0.0
	if xs := lat[classInstance]; len(xs) > 0 && len(handler[classInstance]) > 0 {
		loop = median(xs)*1000 - median(micros(handler[classInstance]))
	}
	m["server.loopback_overhead_us"] = metric{loop, "us"}
	reads := float64(xcache["hit"] + xcache["miss"])
	m["server.cache_hit_ratio"] = metric{ratio(float64(xcache["hit"]), reads), "ratio"}
	m["server.rejected"] = metric{delta(before, after, "server_rejected"), "count"}
	m["xcache.miss"] = metric{float64(xcache["miss"]), "count"}

	us("parser.parse_setting_us", "parser.parse_setting")
	us("parser.parse_instance_us", "parser.parse_instance")
	us("parser.parse_query_us", "parser.parse_query")
	us("parser.format_instance_us", "parser.format_instance")
	us("encode.response_us", "encode.response")
	us("chase.standard_us", "chase.standard")
	us("score.core_us", "score.core")
	us("cwa.minimal_us", "cwa.minimal")
	us("cwa.cansol_us", "cwa.cansol")
	us("cwa.enumerate_us", "cwa.enumerate")
	for _, sem := range semantics {
		us("certain.answers_us."+sem, "certain.answers."+sem)
	}
	us("certain.refusal_us", "certain.refusal")
	us("query.answers_us", "query.answers")
	us("incr.new_us", "incr.new")
	us("incr.apply_us", "incr.apply")
	us("store.register_append_us", "store.register_append")
	us("store.mutate_append_us", "store.mutate_append")
	us("cluster.route_key_us", "cluster.route_key")
	m["cluster.forward_hop_us"] = metric{hop, "us"}

	ops := float64(len(p.Ops))
	writes := float64(attempted[classWrite])
	perOp := func(name, counter string) {
		m[name] = metric{delta(before, after, counter) / ops, "count/op"}
	}
	perOp("chase.steps_per_op", "chase_steps")
	perOp("cwa.enum_states_per_op", "enum_states")
	perOp("certain.rep_visited_per_op", "rep_visited")
	perOp("certain.rep_candidates_per_op", "rep_candidates")
	perOp("hom.backtracks_per_op", "hom_backtracks")
	perOp("hom.extends_per_op", "hom_extends")
	perOp("cluster.forwards_per_op", "cluster_forwards")
	m["incr.delta_firings_per_write"] = metric{ratio(delta(before, after, "incr_delta_firings"), writes), "count/op"}
	m["incr.fallback_ratio"] = metric{ratio(delta(before, after, "incr_fallback_rechase"), delta(before, after, "incr_mutations")), "ratio"}
	m["store.wal_bytes_per_write"] = metric{ratio(delta(before, after, "store_wal_bytes"), writes), "B/op"}
	m["cluster.replica_hit_ratio"] = metric{replica, "ratio"}

	// Tracing overhead: the measured cost of recording a span times the
	// spans recorded per replayed op.
	perSpan := spanCost()
	replayed := 0
	for _, s := range tr.spans {
		if s.Parent == -1 && s.Op >= 0 {
			replayed++
		}
	}
	m["trace.overhead_us_per_op"] = metric{ratio(float64(perSpan)/float64(time.Microsecond)*float64(len(tr.spans)), float64(replayed)), "us"}
	return m
}

// printGroups writes the median latency of every (class, kind, semantics,
// family, state) group, so a class whose cost is not uniform shows which
// of its members differ.
func printGroups(w io.Writer, p *plan, samples []sample) {
	groups := map[string][]float64{}
	for i, o := range p.Ops {
		k := fmt.Sprintf("%s/%s/%s/%s/state%d", o.Class, o.Kind, o.Sem, p.Scenarios[o.Scen].Family, o.State)
		groups[k] = append(groups[k], float64(samples[i].lat)/float64(time.Millisecond))
	}
	names := make([]string, 0, len(groups))
	for k := range groups {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  group %-48s n %6d  p50 %8.4f ms\n", k, len(groups[k]), median(groups[k]))
	}
}

// printWindows writes the completed ops per one-second window of the timed
// phase, which shows whether the machine's speed drifted during the run.
func printWindows(w io.Writer, samples []sample) {
	var win []int
	for _, s := range samples {
		k := int(s.at / time.Second)
		for len(win) <= k {
			win = append(win, 0)
		}
		win[k]++
	}
	fmt.Fprintf(w, "ops per 1s window: %v\n", win)
}

// printMetrics writes every metric by name with its unit.
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
