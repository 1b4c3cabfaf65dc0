package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server/client"
)

// proc is one dxserver child process.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been reaped
}

// fleet is the dxserver processes of one setup.
type fleet struct {
	procs []*proc
	ring  *cluster.Cluster // nil for a single node
}

// freePorts reserves n loopback ports by binding them, then releases them
// for the servers to take.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startFleet starts n dxserver processes (a static cluster when n > 1) and
// waits until each answers /healthz. dir holds their logs and, when
// durable, their data directories.
func startFleet(bin, dir string, n int, durable bool) (*fleet, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	f := &fleet{}
	if n > 1 {
		// The same ring the members build, so the runner knows each
		// scenario's owner.
		f.ring, err = cluster.New(cluster.Config{Peers: urls, Self: urls[0]})
		if err != nil {
			return nil, err
		}
	}
	for i := range urls {
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			// Every scenario of the plan stays resident; the result cache
			// keeps the dxserver default bound, which the warm-up fills.
			"-max-scenarios", "1000000",
		}
		if durable {
			args = append(args, "-data-dir", filepath.Join(dir, fmt.Sprintf("data%d", i)), "-fsync", "off",
				"-snapshot-interval", "0")
		}
		if n > 1 {
			args = append(args, "-cluster", strings.Join(urls, ","), "-cluster-self", urls[i])
		}
		p, err := startProc(bin, args, filepath.Join(dir, fmt.Sprintf("server%d.log", i)), urls[i])
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
	}
	for _, p := range f.procs {
		if err := p.waitHealthy(30 * time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func startProc(bin string, args []string, logPath, url string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, url: url, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) waitHealthy(limit time.Duration) error {
	c := client.New(p.url)
	deadline := time.Now().Add(limit)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := c.Health(ctx)
		cancel()
		if err == nil && h.Status == "ok" {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("dxserver %s exited during start-up", p.url)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dxserver %s not healthy after %v: %v", p.url, limit, err)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop terminates every process and waits until each has been reaped:
// SIGTERM first, SIGKILL if a drain overruns.
func (f *fleet) stop() {
	for _, p := range f.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-time.After(15 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// place renames every scenario of p so that the ring puts it on the
// member whose index is its client's: the plan's name plus the first
// suffix that lands there. The ring hashes the member URLs, whose ports are
// fresh in every run, so without this which member does whose work, and
// whether the two clients' ops meet on one member, would change from run
// to run.
func (f *fleet) place(p *plan) {
	for i := range p.Scenarios {
		s := &p.Scenarios[i]
		for k := 0; ; k++ {
			s.Name = fmt.Sprintf("%s-p%d", scenName(s.Family, i), k)
			if f.owner(s.Name) == s.Client {
				break
			}
		}
	}
}

// owner returns the index of the member owning scenario name (0 on a
// single node).
func (f *fleet) owner(name string) int {
	if f.ring == nil {
		return 0
	}
	o := f.ring.Owner(name)
	for i, p := range f.procs {
		if p.url == o {
			return i
		}
	}
	panic("owner " + o + " is not a fleet member")
}

// node resolves an op's target member: nonOwner means the member that
// does not own the op's scenario.
func (f *fleet) node(p *plan, o op) int {
	if o.Node != nonOwner {
		return o.Node
	}
	return 1 - f.owner(p.Scenarios[o.Scen].Name)
}

// procStat is the CPU time and peak RSS of the fleet's processes.
type procStat struct {
	cpu   time.Duration
	hwmKB int64
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux ABI Go supports.
const clockTick = 100

func (f *fleet) stat() (procStat, error) {
	var s procStat
	for _, p := range f.procs {
		pid := p.cmd.Process.Pid
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return s, err
		}
		// Fields after the parenthesized command name; utime and stime are
		// fields 14 and 15 of the whole line.
		rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
		fs := strings.Fields(rest)
		ut, err1 := strconv.ParseInt(fs[11], 10, 64)
		st, err2 := strconv.ParseInt(fs[12], 10, 64)
		if err1 != nil || err2 != nil {
			return s, fmt.Errorf("parsing /proc/%d/stat", pid)
		}
		s.cpu += time.Duration(ut+st) * time.Second / clockTick
		hwm, err := vmHWM(pid)
		if err != nil {
			return s, err
		}
		s.hwmKB += hwm
	}
	return s, nil
}

func vmHWM(pid int) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.Fields(v)[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape reads /metricsz of every member and sums the counters.
func (f *fleet) scrape() (map[string]int64, error) {
	sum := map[string]int64{}
	for _, p := range f.procs {
		resp, err := http.Get(p.url + "/metricsz")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(b), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("metricsz line %q: %w", line, err)
			}
			sum[name] += v
		}
	}
	return sum, nil
}
