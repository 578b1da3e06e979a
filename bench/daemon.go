package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of utime and stime in /proc/<pid>/stat
// (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// buildDaemon builds cmd/qulrbd from the repository at root into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "qulrbd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/qulrbd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build qulrbd: %w", err)
	}
	return bin, nil
}

// daemon is one running qulrbd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// freeAddr reserves a loopback port for the next daemon start.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon execs bin on stateDir and waits for the first 200 on
// /healthz, polled every millisecond (with nanosleep: a runtime timer
// would add up to a millisecond of slack to a start that takes a few).
// It returns the daemon and the time from exec to ready. The daemon's
// output is appended to logPath.
func startDaemon(bin, stateDir, logPath string, flags daemonFlags) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, flags.args(stateDir, addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the bench dies, the kernel kills the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start qulrbd: %w", err)
	}
	go func() { d.exited <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.exited:
			return nil, 0, fmt.Errorf("qulrbd exited before ready (%v); see %s", err, logPath)
		default:
		}
		sleepUntil(time.Now().Add(time.Millisecond))
		if time.Since(t0) > time.Minute {
			d.kill()
			return nil, 0, fmt.Errorf("qulrbd not ready after a minute; see %s", logPath)
		}
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it already exited; the wait below covers both
	<-d.exited
}

// terminate sends SIGTERM and requires a clean exit within a minute.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal qulrbd: %w", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("qulrbd exit after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(time.Minute):
		d.kill()
		return errors.New("qulrbd did not exit within a minute of SIGTERM")
	}
}

// cpuTime reads the daemon's user plus system CPU time.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat: %w", err)
	}
	return time.Duration(u+k) * clockTick, nil
}

// peakRSS reads the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
