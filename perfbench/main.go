// Command perfbench is the repository's end-to-end benchmark. It
// builds nothing itself: run.sh builds gorderd and this program from
// source and then runs
//
//	perfbench --gorderd <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// from the repository root. It starts gorderd as a child process on a
// fresh data directory, drives it over HTTP from closed-loop clients,
// checks every answer, and prints one JSON object as its last line:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one run well inside the 180 s a run may take,
// leaving room for run.sh's up-to-date check of the binaries and for
// stopping the daemon.
const runDeadline = 150 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "query-cold, query-hot or write-mix")
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 10, "nominal measuring time; scales the fixed operation lists")
		trace    = flag.Int("trace", 0, "1 = traced run: print per-layer metrics")
		bin      = flag.String("gorderd", "", "gorderd binary to benchmark")
		work     = flag.String("work", ".bench_build", "directory for run data (data directories are created fresh under it)")
	)
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --gorderd, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		gorderd: absBin, runDir: runDir}

	// A signal cancels the run like the deadline does: every request
	// returns, the daemon is stopped and the run directory removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	res, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, line := range res {
		fmt.Println(line)
	}
	return 0
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload and returns the output lines, the result
// line last.
func execute(ctx context.Context, cfg config) ([]string, error) {
	var out *outcome
	var view *daemonView
	var err error
	steal0, stealErr := hostStealMs()
	switch cfg.workload {
	case "query-cold":
		out, view, err = runRead(ctx, cfg, false)
	case "query-hot":
		out, view, err = runRead(ctx, cfg, true)
	case "write-mix":
		out, view, err = runWrite(ctx, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (query-cold, query-hot, write-mix)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	t := out.tally
	for _, note := range t.notes {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", note)
	}
	e2e, samples := endToEnd(out)
	if e2e.err != nil {
		return nil, e2e.err
	}
	meta := runMeta(cfg, out, samples)
	// CPU time the hypervisor gave to other guests while this run's
	// vCPUs were ready to run: the first thing to look at when a run's
	// timings are out of line with its neighbours'.
	if steal1, err := hostStealMs(); err == nil && stealErr == nil {
		meta["host_steal_ms"] = steal1 - steal0
	}
	lines := []string{mustJSON(map[string]any{"meta": meta})}
	metrics := e2e.m
	if cfg.trace {
		layers, err := traceLayers(ctx, cfg, view, out.layer)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		lines = append(lines, mustJSON(map[string]any{"traced_end_to_end": e2e.m}))
		metrics = layers.m
	}
	lines = append(lines, mustJSON(result{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics,
	}))
	return lines, nil
}

// endToEnd computes the end-to-end metrics and the sample count behind
// each percentile.
func endToEnd(out *outcome) (*metricSet, map[string]int) {
	t := out.tally
	ms := newMetricSet()
	samples := make(map[string]int)
	pct := func(name, kind string, p float64) {
		ms.pct(name, t.lat[kind], p)
		samples[name] = len(t.lat[kind])
	}
	pct("query_p50_ms", "query", 0.50)
	pct("query_p99_ms", "query", 0.99)
	pct("upload_p50_ms", "upload", 0.50)
	pct("order_p50_ms", "order", 0.50)
	pct("order_p90_ms", "order", 0.90)
	pct("edit_p50_ms", "edit", 0.50)
	pct("edit_p90_ms", "edit", 0.90)
	ms.set("query_rps", "1/s", float64(out.queries)/out.window.Seconds())
	ms.set("ok_share", "ratio", float64(t.attempted-t.failed)/float64(max(1, t.attempted)))
	ms.set("peak_rss_mb", "MB", out.rssMB)
	ms.set("setup_s", "s", median(out.setup))
	return ms, samples
}

// runMeta is the run's metadata line: host, toolchain, inputs and the
// sample count behind every percentile.
func runMeta(cfg config, out *outcome, samples map[string]int) map[string]any {
	m := map[string]any{
		"workload":           cfg.workload,
		"seed":               cfg.seed,
		"seconds":            cfg.seconds,
		"trace":              cfg.trace,
		"cores":              runtime.NumCPU(),
		"go_version":         runtime.Version(),
		"goos_goarch":        runtime.GOOS + "/" + runtime.GOARCH,
		"clients":            map[bool]int{false: clients, true: hotClients}[cfg.workload == "query-hot"],
		"setup_reps":         len(out.setup),
		"setup_s_each":       out.setup,
		"window_s":           out.window.Seconds(),
		"data_dir_fs":        fsType(cfg.runDir),
		"gorderd_flags":      "-addr 127.0.0.1:0 -manifest <run>/jobs.manifest.json -data-dir <run>/data (all else default)",
		"percentile_samples": samples,
	}
	for k, v := range out.meta {
		m[k] = v
	}
	return m
}

// hostStealMs reads the host's steal time, summed over all CPUs, from
// the first line of /proc/stat, in milliseconds.
func hostStealMs() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(b)
}

// parseSteal extracts the steal field (the eighth value of the "cpu"
// line, in USER_HZ ticks of 10 ms) from /proc/stat.
func parseSteal(stat []byte) (float64, error) {
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("malformed /proc/stat cpu line %q", line)
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat steal field: %w", err)
	}
	return 10 * ticks, nil
}

// fsType names the filesystem holding dir, as statfs reports it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// progress notes a phase on stderr with the time since the run began.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs  %s\n", time.Since(began).Seconds(), fmt.Sprintf(format, args...))
}

var began = time.Now()

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers are encoded
	}
	return string(b)
}
