package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// cliRun is one finished datasynth invocation.
type cliRun struct {
	wall   time.Duration // from launch to exit
	maxRSS int64         // peak resident set, bytes
	stdout []byte
}

// runCLI launches the datasynth binary and waits for it to exit.
func runCLI(ctx context.Context, bin string, args ...string) (cliRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return cliRun{}, err
	}
	err := cmd.Wait()
	run := cliRun{wall: time.Since(start), stdout: stdout.Bytes(), maxRSS: maxRSS(cmd.ProcessState)}
	if err != nil {
		return run, fmt.Errorf("datasynth %v: %w: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return run, nil
}

// maxRSS reads a finished process's peak RSS (Linux reports KiB).
func maxRSS(ps *os.ProcessState) int64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss * 1024
	}
	return 0
}

// exportCLI runs one datasynth export of schemaPath into a fresh dir.
func exportCLI(ctx context.Context, bin, schemaPath, dir, format string) (cliRun, error) {
	if err := os.RemoveAll(dir); err != nil {
		return cliRun{}, err
	}
	return runCLI(ctx, bin, "-schema", schemaPath, "-out", dir, "-format", format)
}

// daemon is a running datasynthd and an HTTP client sized to the load.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
	base   string
	client *http.Client
	stderr bytes.Buffer
}

// startDaemon launches datasynthd with its cache and scenario registry
// under dir and waits until it answers /v1/healthz.
func startDaemon(ctx context.Context, bin, dir string, cacheMax int64, conns int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d := &daemon{
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	d.cmd = exec.Command(bin,
		"-listen", "127.0.0.1:"+strconv.Itoa(port),
		"-cache", filepath.Join(dir, "cache"),
		"-scenariodir", filepath.Join(dir, "scenarios"),
		"-cachemaxbytes", strconv.FormatInt(cacheMax, 10))
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState in stop
		close(d.exited)
	}()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/v1/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("datasynthd exited during start: %s", d.stderr.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("datasynthd did not become healthy in 30s")
		}
	}
}

// stop asks the daemon to drain, kills it if it does not exit within
// 30 s, waits for the exit and returns its peak RSS in bytes.
func (d *daemon) stop() int64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already exited daemon is fine
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.client.CloseIdleConnections()
	return maxRSS(d.cmd.ProcessState)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// drain reads and closes a body so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // best effort: the body is not needed
	resp.Body.Close()
}

// jobView is the part of datasynthd's job record the benchmark reads.
type jobView struct {
	ID       string     `json:"id"`
	Status   string     `json:"status"`
	CacheHit bool       `json:"cache_hit"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Error    string     `json:"error"`
	Files    []struct {
		Name   string `json:"name"`
		Bytes  int64  `json:"bytes"`
		SHA256 string `json:"sha256"`
	} `json:"files"`
}

// fileSHA returns the manifest's digest of name.
func (v jobView) fileSHA(name string) (string, bool) {
	for _, f := range v.Files {
		if f.Name == name {
			return f.SHA256, true
		}
	}
	return "", false
}

// call sends one request and decodes a JSON reply into out, failing on
// any status outside 2xx.
func (d *daemon) call(method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (d *daemon) putScenario(name, text string) error {
	return d.call(http.MethodPut, "/v1/scenarios/"+name, "", []byte(text), nil)
}

// submit submits the scenario by name with overrides.
func (d *daemon) submit(scenario string, params map[string]string, format string) (jobView, error) {
	body, err := json.Marshal(map[string]any{"scenario": scenario, "params": params, "format": format})
	if err != nil {
		return jobView{}, err
	}
	var v jobView
	err = d.call(http.MethodPost, "/v1/jobs", "application/json", body, &v)
	return v, err
}

// wait long-polls a job until it is done or failed.
func (d *daemon) wait(id string) (jobView, error) {
	for {
		var v jobView
		if err := d.call(http.MethodGet, "/v1/jobs/"+id+"?wait=60s", "", nil, &v); err != nil {
			return v, err
		}
		switch v.Status {
		case "done":
			return v, nil
		case "failed":
			return v, fmt.Errorf("job %s failed: %s", id, v.Error)
		}
	}
}

// download reads one table of a done job into buf.
func (d *daemon) download(id, file string, buf *bytes.Buffer) error {
	resp, err := d.client.Get(d.base + "/v1/jobs/" + id + "/tables/" + file)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("download %s/%s: %s", id, file, resp.Status)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return err
}

// daemonStats is the part of /v1/stats the benchmark reads.
type daemonStats struct {
	Cache struct {
		LRUEvictions int64 `json:"lru_evictions"`
	} `json:"cache"`
	Generations int64 `json:"generations"`
}

func (d *daemon) stats() (daemonStats, error) {
	var s daemonStats
	err := d.call(http.MethodGet, "/v1/stats", "", nil, &s)
	return s, err
}
