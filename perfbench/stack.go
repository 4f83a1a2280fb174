package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/datagen"
)

// readyTimeout bounds how long one process may take to report readiness.
const readyTimeout = 60 * time.Second

// proc is one spawned process of the deployment, with its output kept for
// readiness checks and diagnostics.
type proc struct {
	name string
	cmd  *exec.Cmd

	mu   sync.Mutex
	out  strings.Builder
	grew chan struct{} // signalled, without blocking, after each output line
	done chan struct{} // closed when the process's output ends
}

// spawn starts bin with args. The child is killed if perfbench dies, so a
// crashed run leaves no process behind.
func spawn(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, grew: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.mu.Lock()
			p.out.WriteString(sc.Text() + "\n")
			p.mu.Unlock()
			select {
			case p.grew <- struct{}{}:
			default:
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	return p, nil
}

// await returns the first submatch of re in the process's output, or an
// error carrying the output if the process reports an error, exits or
// does not match within readyTimeout.
func (p *proc) await(ctx context.Context, re *regexp.Regexp) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	for {
		out := p.output()
		if i := strings.Index(out, "error:"); i >= 0 {
			line, _, _ := strings.Cut(out[i:], "\n")
			return "", fmt.Errorf("%s: %s", p.name, line)
		}
		if m := re.FindStringSubmatch(out); m != nil {
			return m[1], nil
		}
		select {
		case <-p.grew:
		case <-p.done:
			if re.MatchString(p.output()) {
				continue
			}
			return "", fmt.Errorf("%s exited before it was ready:\n%s", p.name, p.output())
		case <-ctx.Done():
			return "", fmt.Errorf("%s not ready: %w\n%s", p.name, ctx.Err(), out)
		}
	}
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// stop kills the process and waits until it and its output reader have
// ended.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // already exited is fine: Wait reports it
	_ = p.cmd.Wait()
	<-p.done
}

// deployment is the real process stack of one set-up: three wrappers and
// the mediator front door.
type deployment struct {
	wrappers []*proc
	mediator *proc
	addr     string // front door host:port
}

func (d *deployment) stop() {
	if d.mediator != nil {
		d.mediator.stop()
	}
	for _, w := range d.wrappers {
		w.stop()
	}
}

var (
	runningAt   = regexp.MustCompile(`is running at [^ ]*:(\d+) `)
	frontDoorAt = regexp.MustCompile(`front door is running at (\S+)`)
	scriptDone  = regexp.MustCompile(`(console closed); front door still serving`)
)

// mediatorFlags are the yat-mediator flags of every workload. The
// wrapper-result cache stays off (its default).
var mediatorFlags = []string{"-serve", "127.0.0.1:0"}

// deploy starts the wrapper processes with the workload's data flags,
// waits for each to report its port, then starts the mediator front door
// with a connect-and-load script and waits until the script has run.
func deploy(ctx context.Context, bin, dir string, w workload, seed int64, feedPath string) (*deployment, error) {
	dep := &deployment{}
	o2Args := []string{"-port", "0"}
	waisArgs := []string{"-port", "0"}
	if w.artifacts > 0 {
		o2Args = append(o2Args, "-artifacts", strconv.Itoa(w.artifacts), "-seed", strconv.FormatInt(seed, 10))
		waisArgs = append(waisArgs, "-works", strconv.Itoa(w.artifacts), "-seed", strconv.FormatInt(seed, 10))
	}
	specs := []struct {
		name, bin string
		args      []string
	}{
		{"o2artifact", "o2-wrapper", o2Args},
		{"xmlartwork", "xmlwais-wrapper", waisArgs},
		{"bulkfeed", "feed-wrapper", []string{"-port", "0", "-dump", feedPath}},
	}
	for _, s := range specs {
		p, err := spawn(s.bin, filepath.Join(bin, s.bin), s.args...)
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.wrappers = append(dep.wrappers, p)
	}
	var script strings.Builder
	for i, s := range specs {
		port, err := dep.wrappers[i].await(ctx, runningAt)
		if err != nil {
			dep.stop()
			return nil, err
		}
		fmt.Fprintf(&script, "connect %s 127.0.0.1:%s\n", s.name, port)
	}
	view := filepath.Join(dir, "view1.yat")
	if err := os.WriteFile(view, []byte(datagen.View1Src), 0o644); err != nil {
		dep.stop()
		return nil, err
	}
	fmt.Fprintf(&script, "load %s\nquit\n", view)
	scriptPath := filepath.Join(dir, "session.txt")
	if err := os.WriteFile(scriptPath, []byte(script.String()), 0o644); err != nil {
		dep.stop()
		return nil, err
	}
	args := append([]string{"-script", scriptPath}, mediatorFlags...)
	p, err := spawn("yat-mediator", filepath.Join(bin, "yat-mediator"), args...)
	if err != nil {
		dep.stop()
		return nil, err
	}
	dep.mediator = p
	if dep.addr, err = p.await(ctx, frontDoorAt); err == nil {
		_, err = p.await(ctx, scriptDone)
	}
	if err != nil {
		dep.stop()
		return nil, err
	}
	return dep, nil
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// cpuMS reads a process's user plus system CPU time in milliseconds.
func cpuMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return (utime + stime) * 1000 / clockTicks, nil
}

// peakRSSMB reads a process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// cpu sums the CPU time of the wrappers and reads the mediator's.
func (d *deployment) cpu() (med, wrappers float64, err error) {
	if med, err = cpuMS(d.mediator.cmd.Process.Pid); err != nil {
		return 0, 0, err
	}
	for _, w := range d.wrappers {
		v, err := cpuMS(w.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		wrappers += v
	}
	return med, wrappers, nil
}

// hostTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat: time the hypervisor gave to other guests shows as steal, and
// the gate (gate.go) leaves windows with much of it out of the metrics.
func hostTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total, nil
}
