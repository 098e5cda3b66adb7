package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles the daemons from the checked-out tree into dir.
func buildBinaries(ctx context.Context, root, dir string, names ...string) error {
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", strings.Join(names, " "), err, out.String())
	}
	return nil
}

// daemon is one started system-under-test process. Its stderr goes to a file
// so the benchmark can parse the "serving on" line and show the tail when the
// process dies.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	addr    string // host:port parsed from the "serving on" line
	errPath string
	exited  chan struct{} // closed once cmd.Wait returns
	waitErr error
}

// fleet owns every daemon a run starts; stopAll is safe to call on every
// exit path and more than once.
type fleet struct {
	mu      sync.Mutex
	daemons []*daemon
}

var servingRe = regexp.MustCompile(`^\S+: serving on (\S+)`)

// start launches bin, waits for its "serving on" line and then for /readyz
// to return 200. A daemon that exits first fails the start with its stderr.
func (f *fleet) start(ctx context.Context, name, bin, errPath string, args ...string) (*daemon, error) {
	ef, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = ef, ef
	// The kernel kills the daemon if the benchmark dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		ef.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, errPath: errPath, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		ef.Close()
		close(d.exited)
	}()
	f.mu.Lock()
	f.daemons = append(f.daemons, d)
	f.mu.Unlock()

	deadline := time.Now().Add(60 * time.Second)
	for d.addr == "" {
		if m := servingRe.FindStringSubmatch(firstMatch(errPath, "serving on")); m != nil {
			d.addr = m[1]
			break
		}
		if err := d.waitTick(ctx, deadline); err != nil {
			return nil, err
		}
	}
	for {
		if readyz(ctx, d.addr) {
			return d, nil
		}
		if err := d.waitTick(ctx, deadline); err != nil {
			return nil, err
		}
	}
}

func (d *daemon) waitTick(ctx context.Context, deadline time.Time) error {
	select {
	case <-d.exited:
		return d.deathError()
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(5 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		return fmt.Errorf("%s not ready after 60s\n%s", d.name, tail(d.errPath, 20))
	}
	return nil
}

func (d *daemon) deathError() error {
	return fmt.Errorf("%s exited (%v); stderr tail:\n%s", d.name, d.waitErr, tail(d.errPath, 20))
}

func readyz(ctx context.Context, addr string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// checkAlive reports the first daemon that has exited without being asked.
func (f *fleet) checkAlive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range f.daemons {
		select {
		case <-d.exited:
			return d.deathError()
		default:
		}
	}
	return nil
}

// stop sends SIGTERM, waits up to 10 s for the drain, then kills; it
// returns once the process has been reaped.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below either way
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// stopAll stops every daemon in reverse start order (routers before the
// workers they call).
func (f *fleet) stopAll() {
	f.mu.Lock()
	ds := f.daemons
	f.daemons = nil
	f.mu.Unlock()
	for i := len(ds) - 1; i >= 0; i-- {
		ds[i].stop()
	}
}

// vmHWM returns a process's peak resident set in MiB from /proc.
func vmHWM(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(strconv.Itoa(d.cmd.Process.Pid))
}

func firstMatch(path, substr string) string {
	b, _ := os.ReadFile(path) // a missing file just means no output yet
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return ""
}

func tail(path string, n int) string {
	b, _ := os.ReadFile(path) // best effort: this only decorates an error
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return "  " + strings.Join(lines, "\n  ")
}
