package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sramco"
	"sramco/internal/obs"
	"sramco/internal/serve"
)

// The server side of the benchmark runs in its own process (sramperf serve),
// so its CPU time, allocation and peak RSS belong to the workload alone. It
// sets the server up, reports READY with its setup timings on stdout, then
// answers one-line commands on stdin with one JSON line each:
//
//	stats     process CPU time, MemStats, VmHWM and every obs counter
//	counters  every obs counter
//	trace     the traced run's handler timings, run spans and span totals
//
// It shuts down when stdin closes.

type setupTiming struct {
	TotalS     float64 `json:"total_s"`
	FrameworkS float64 `json:"framework_s"`
	CatalogS   float64 `json:"catalog_s"`
	RailProbes int64   `json:"rail_probes"`
}

type readyMsg struct {
	Addr   string        `json:"addr"`
	Setups []setupTiming `json:"setups"`
}

type statsMsg struct {
	CPUNS      int64            `json:"cpu_ns"`
	TotalAlloc uint64           `json:"total_alloc"`
	NumGC      uint32           `json:"num_gc"`
	PauseNS    uint64           `json:"pause_ns"`
	HWMKB      int64            `json:"hwm_kb"`
	Counters   map[string]int64 `json:"counters"`
}

type handlerRec struct {
	NS    int64  `json:"ns"`
	Cache string `json:"cache"`
}

// runRec sums the search/MC run spans of one trace and the union of its
// core.search.chunk spans.
type runRec struct {
	Name    string `json:"name"`
	NS      int64  `json:"ns"`
	UnionNS int64  `json:"union_ns"`
	SelfNS  int64  `json:"self_ns"`
	Chunks  int    `json:"chunks"`

	chunks []interval
}

type spanAgg struct {
	N  int64 `json:"n"`
	NS int64 `json:"ns"`
}

type traceMsg struct {
	Handlers map[string]handlerRec `json:"handlers"`
	Runs     map[string]*runRec    `json:"runs"`
	Spans    map[string]*spanAgg   `json:"spans"`
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	name := fs.String("workload", "", "workload whose server to set up")
	traced := fs.Bool("trace", false, "wrap the handler and collect spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := serveChild(*name, *traced); err != nil {
		fmt.Fprintf(os.Stderr, "sramperf serve: %v\n", err)
		return 1
	}
	return 0
}

func serveChild(name string, traced bool) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	w, ok := spec.workload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	mode := sramco.TechPaper
	if w.Mode == "simulated" {
		mode = sramco.TechSimulated
	}
	var ready readyMsg
	var srv *serve.Server
	for k := 0; k < spec.Setups; k++ {
		probes0 := obs.Default().CounterValue("cell.rail.search_probes")
		t0 := time.Now()
		fw, err := sramco.NewFramework(mode)
		if err != nil {
			return err
		}
		st := setupTiming{FrameworkS: time.Since(t0).Seconds()}
		srv = serve.New(fw, serve.Config{})
		if w.Catalog {
			t1 := time.Now()
			cat, err := srv.BuildCatalog(context.Background(), serve.DefaultCatalogGrid())
			if err != nil {
				return err
			}
			srv.SetCatalog(cat)
			st.CatalogS = time.Since(t1).Seconds()
		}
		st.TotalS = time.Since(t0).Seconds()
		st.RailProbes = obs.Default().CounterValue("cell.rail.search_probes") - probes0
		ready.Setups = append(ready.Setups, st)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := srv.Handler()
	var tr *tracer
	if traced {
		tr = newTracer()
		obs.SetSink(tr)
		h = tr.wrap(h)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ready.Addr = ln.Addr().String()
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(ready); err != nil {
		return err
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		var reply any
		switch cmd := sc.Text(); cmd {
		case "stats":
			reply = processStats()
		case "counters":
			reply = statsMsg{Counters: obs.Default().Snapshot().Counters}
		case "trace":
			if tr == nil {
				return errors.New("trace requested from an untraced server")
			}
			reply = tr.dump()
		default:
			return fmt.Errorf("unknown command %q", cmd)
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := hs.Shutdown(ctx)
	drainErr := srv.Drain(ctx)
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(shutdownErr, drainErr)
}

func processStats() statsMsg {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return statsMsg{
		CPUNS:      ru.Utime.Nano() + ru.Stime.Nano(),
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
		PauseNS:    ms.PauseTotalNs,
		HWMKB:      vmHWM(),
		Counters:   obs.Default().Snapshot().Counters,
	}
}

// vmHWM reads the process's peak resident set size in kB (0 if unknown).
func vmHWM() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// tracer is the traced server's instrumentation, all of it outside the
// program: a wrapper timing each request through the real handler, and an
// obs sink receiving the spans the program already emits.
type tracer struct {
	mu       sync.Mutex
	handlers map[string]handlerRec
	runs     map[string]*runRec
	spans    map[string]*spanAgg
}

func newTracer() *tracer {
	return &tracer{handlers: map[string]handlerRec{}, runs: map[string]*runRec{}, spans: map[string]*spanAgg{}}
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		tid, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			return
		}
		t.mu.Lock()
		t.handlers[tid.String()] = handlerRec{NS: d.Nanoseconds(), Cache: w.Header().Get("X-Cache")}
		t.mu.Unlock()
	})
}

// Emit implements obs.Sink.
func (t *tracer) Emit(ev obs.Event) {
	if ev.Kind != obs.KindSpan {
		return
	}
	end := ev.Time.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Name {
	case "core.search", "core.search.pareto", "mc.run", "mc.stream":
		r := t.run(ev.Trace)
		r.Name = ev.Name
		r.NS += ev.Dur.Nanoseconds()
	case "core.search.chunk":
		r := t.run(ev.Trace)
		r.chunks = append(r.chunks, interval{end - ev.Dur.Nanoseconds(), end})
	}
	if strings.HasPrefix(ev.Name, "cell.") || strings.HasPrefix(ev.Name, "circuit.") || strings.HasPrefix(ev.Name, "serve.") {
		a := t.spans[ev.Name]
		if a == nil {
			a = &spanAgg{}
			t.spans[ev.Name] = a
		}
		a.N++
		a.NS += ev.Dur.Nanoseconds()
	}
}

func (t *tracer) run(id obs.TraceID) *runRec {
	k := id.String()
	r := t.runs[k]
	if r == nil {
		r = &runRec{}
		t.runs[k] = r
	}
	return r
}

func (t *tracer) dump() traceMsg {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.runs {
		r.SelfNS = selfTime(r.NS, r.chunks)
		r.UnionNS = r.NS - r.SelfNS
		r.Chunks = len(r.chunks)
	}
	return traceMsg{Handlers: t.handlers, Runs: t.runs, Spans: t.spans}
}

// child is the parent's handle on a server process.
type child struct {
	cmd   *exec.Cmd
	stdin io.Closer
	send  *bufio.Writer
	dec   *json.Decoder
	ready readyMsg
}

// startChild launches `sramperf serve` for the workload and waits until it
// reports READY.
func startChild(w workloadSpec, traced bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve", "-workload", w.Name, "-trace="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: in, send: bufio.NewWriter(in), dec: json.NewDecoder(out)}
	if err := c.dec.Decode(&c.ready); err != nil {
		c.kill()
		return nil, fmt.Errorf("server process did not become ready: %w", err)
	}
	return c, nil
}

func (c *child) call(cmd string, reply any) error {
	if _, err := c.send.WriteString(cmd + "\n"); err != nil {
		return err
	}
	if err := c.send.Flush(); err != nil {
		return err
	}
	if err := c.dec.Decode(reply); err != nil {
		return fmt.Errorf("server process %s: %w", cmd, err)
	}
	return nil
}

func (c *child) stats() (statsMsg, error) {
	var s statsMsg
	return s, c.call("stats", &s)
}

func (c *child) counters() (map[string]int64, error) {
	var s statsMsg
	err := c.call("counters", &s)
	return s.Counters, err
}

// stop closes the server's stdin, which drains and exits it, and waits.
func (c *child) stop() error {
	c.stdin.Close()
	return c.cmd.Wait()
}

// kill ends the server process on an error path and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already exited is fine
	_ = c.cmd.Wait()         // the kill is the error being handled
}
