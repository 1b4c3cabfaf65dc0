package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs must be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) (method "exclusive") computes them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs a workload n times with seeds seed, seed+1, ... and
// prints, per end-to-end metric, the median, quartiles and IQR/median,
// flagging any spread above the metric's bound in BENCHMARK.json (or above
// a third of it, the margin the bounds are chosen with). It reports
// whether every spread stayed within its bound.
func steadiness(w io.Writer, cfg runConfig, n int) (bool, error) {
	spec := benchSpec{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(b, &spec); err != nil {
			return false, fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		c.trace = false
		res, err := run(io.Discard, c)
		if err != nil {
			return false, err
		}
		if !res.Correct {
			return false, fmt.Errorf("seed %d: run not correct", c.seed)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
		}
		fmt.Fprintf(w, "run %d/%d seed %d:", i+1, n, c.seed)
		for _, k := range []string{"throughput_ops", "certain_p50_ms", "instance_p50_ms", "write_p50_ms", "server_cpu_ms_per_op", "setup_s"} {
			fmt.Fprintf(w, " %s=%.4g", k, res.Metrics[k].Value)
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	ok := true
	fmt.Fprintf(w, "%-22s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "iqr/med", "bound")
	for _, k := range names {
		vs := values[k]
		med := median(vs)
		q1, q3 := quartiles(vs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		flag := ""
		if b, has := bounds[k]; has && k != "setup_s" {
			switch {
			case spread > b:
				flag, ok = "OVER", false
			case spread > b/3:
				flag = "over b/3"
			}
		}
		fmt.Fprintf(w, "%-22s %12.5g %12.5g %12.5g %8.4f %6.3g %s\n", k, med, q1, q3, spread, bounds[k], flag)
	}
	return ok, nil
}
