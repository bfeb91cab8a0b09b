package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one gorderd child process on a fresh data directory.
// Only deployment settings are passed: the listen address, the
// manifest path and -data-dir. Every behavioural flag keeps its
// default, so the benchmark measures the daemon as shipped.
type daemon struct {
	cmd     *exec.Cmd
	dir     string // per-instance directory: data/, manifest, log
	base    string // http://host:port
	client  *http.Client
	started time.Time
	exited  chan struct{}
	waitErr error
}

// startDaemon launches bin with a fresh store under runDir and returns
// once it has announced its listen address.
func startDaemon(bin, runDir string) (*daemon, error) {
	dir, err := os.MkdirTemp(runDir, "gorderd-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "gorderd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d := &daemon{dir: dir, exited: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-manifest", filepath.Join(dir, "jobs.manifest.json"),
		"-data-dir", filepath.Join(dir, "data"))
	d.cmd.Stderr = logf
	// If the benchmark dies without stopping the daemon, the kernel
	// kills it, so no run leaves a process behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gorderd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "gorderd listening on "); ok {
				addr <- a
			}
		}
		// Drained: the child closed stdout, which it does on exit.
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("gorderd exited before listening: %v (log %s)", d.waitErr, logf.Name())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("gorderd did not announce its address within 30s")
	}
	d.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
	return d, nil
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after a
// grace period) and returns once it has ended.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads the daemon's VmHWM while it is still running.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(b)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// parseVmHWM extracts the VmHWM field (kB) from /proc/<pid>/status.
func parseVmHWM(status []byte) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("no VmHWM line in status")
}

// manifestBytes is the size of the store's manifest file.
func (d *daemon) manifestBytes() (int64, error) {
	fi, err := os.Stat(filepath.Join(d.dir, "data", "manifest.json"))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// httpError is a non-2xx answer or a transport failure.
type httpError struct {
	Status int // 0 for transport errors
	Body   string
}

func (e *httpError) Error() string {
	if e.Status == 0 {
		return "transport: " + e.Body
	}
	return fmt.Sprintf("HTTP %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// do sends one request and decodes a 2xx JSON answer into out.
func (d *daemon) do(ctx context.Context, method, path, ctype string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return &httpError{Body: err.Error()}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return &httpError{Body: err.Error()}
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{Status: resp.StatusCode, Body: string(data)}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decoding %s %s answer: %w", method, path, err)
	}
	return nil
}

func (d *daemon) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return d.do(ctx, http.MethodPost, path, "application/json", body, out)
}

func (d *daemon) get(ctx context.Context, path string, out any) error {
	return d.do(ctx, http.MethodGet, path, "", nil, out)
}

// metrics returns the /metrics counters.
func (d *daemon) metrics(ctx context.Context) (map[string]int64, error) {
	var m map[string]int64
	err := d.get(ctx, "/metrics", &m)
	return m, err
}

// ---- API shapes (the subset the benchmark reads) ----------------------

type graphInfo struct {
	ID      string `json:"id"`
	Nodes   int    `json:"nodes"`
	Edges   int64  `json:"edges"`
	Version int    `json:"version"`
}

// jobStatus is a job's status. Its timestamps have nanosecond
// resolution; the whole-millisecond queue_wait_ms and duration_ms
// fields would read 0 for most of the benchmark's jobs.
type jobStatus struct {
	ID       string             `json:"id"`
	State    string             `json:"state"`
	Error    string             `json:"error"`
	Created  time.Time          `json:"created"`
	Started  *time.Time         `json:"started"`
	Finished *time.Time         `json:"finished"`
	Metrics  map[string]float64 `json:"metrics"`
}

// queueWaitMs is the time the job waited in the queue before a worker
// started it.
func (st jobStatus) queueWaitMs() float64 { return ms(st.Started.Sub(st.Created)) }

// durationMs is the time a worker spent on the job.
func (st jobStatus) durationMs() float64 { return ms(st.Finished.Sub(*st.Started)) }

type queryRequest struct {
	Graph  string `json:"graph"`
	Kernel string `json:"kernel"`
	Source *int   `json:"source,omitempty"`
	Iters  int    `json:"iters,omitempty"`
	Top    int    `json:"top,omitempty"`
}

type queryValue struct {
	Node  int     `json:"node"`
	Value float64 `json:"value"`
}

type queryResponse struct {
	Kernel   string `json:"kernel"`
	CacheHit bool   `json:"cache_hit"`
	Ordering struct {
		Method string `json:"method"`
	} `json:"ordering"`
	Summary map[string]float64 `json:"summary"`
	Values  []queryValue       `json:"values"`
}

type edgeSpec struct {
	From int `json:"from"`
	To   int `json:"to"`
}

type editRequest struct {
	AddNodes int        `json:"add_nodes,omitempty"`
	Add      []edgeSpec `json:"add,omitempty"`
	Del      []edgeSpec `json:"del,omitempty"`
}

type editResponse struct {
	Graph     graphInfo `json:"graph"`
	RepairJob string    `json:"repair_job"`
}

// upload posts a text edge list as a named graph.
func (d *daemon) upload(ctx context.Context, name string, text []byte) (graphInfo, error) {
	var info graphInfo
	err := d.do(ctx, http.MethodPost, "/graphs?name="+name, "text/plain", text, &info)
	return info, err
}

// jobPoll is the status poll interval while waiting for a job.
const jobPoll = 2 * time.Millisecond

// waitJob polls a job until it leaves the queued and running states.
func (d *daemon) waitJob(ctx context.Context, id string) (jobStatus, error) {
	for {
		var st jobStatus
		if err := d.get(ctx, "/jobs/"+id, &st); err != nil {
			return st, err
		}
		switch st.State {
		case "done":
			if st.Started == nil || st.Finished == nil {
				return st, fmt.Errorf("job %s is done without start and finish times", id)
			}
			return st, nil
		case "failed", "canceled":
			return st, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(jobPoll):
		}
	}
}

// submitOrder submits a gorder job on graph and returns its ID.
func (d *daemon) submitOrder(ctx context.Context, graph string) (string, error) {
	var st jobStatus
	err := d.postJSON(ctx, "/jobs", map[string]string{"kind": "order", "graph": graph, "method": "gorder"}, &st)
	return st.ID, err
}

// permutation downloads a done order job's permutation.
func (d *daemon) permutation(ctx context.Context, id string) ([]int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/jobs/"+id+"/permutation", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, &httpError{Status: resp.StatusCode, Body: string(b)}
	}
	return parsePermutation(resp.Body)
}

// parsePermutation reads one vertex ID per line, skipping '#' comments.
func parsePermutation(r io.Reader) ([]int, error) {
	var out []int
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("permutation line %q: %w", line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}
