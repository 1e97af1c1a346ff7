// Package dispatch fans work units out across worker subprocesses. It is
// the process-level counterpart of the experiments package's in-process
// worker pool: a coordinator (Pool) partitions a slice of serialized work
// units among `hyperprof -worker` subprocesses, each speaking a
// length-prefixed JSON job/result protocol over stdin/stdout, and merges the
// results back in unit order. Workers are stateless between units, so a
// crashed, hung or garbled worker is killed, respawned and its unit retried
// a bounded number of times; whatever still fails is reported with the error
// of the lowest-indexed failing unit, so the surfaced error is deterministic
// regardless of worker interleaving — the same contract the in-process
// runner keeps for goroutine workers.
//
// The protocol is deliberately minimal: every frame is a 4-byte big-endian
// length followed by that many bytes of JSON. Requests carry a unit id, a
// kind tag and an opaque body; responses echo the id and carry either a
// result body or an error string. Application errors (the handler returned
// an error) travel in-band as response frames and are never retried — a
// deterministic job failure must surface identically on every backend.
// Transport errors (worker exit, truncated or oversized frame, id mismatch,
// timeout) are environmental, so those trigger the respawn-and-retry path.
package dispatch

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sync"
	"time"
)

// MaxFrame bounds a single protocol frame. A length prefix beyond this is a
// malformed frame (a worker writing garbage to stdout decodes as an absurd
// length long before it allocates anything), so the coordinator rejects it
// and recycles the worker instead of attempting the allocation.
const MaxFrame = 1 << 28 // 256 MiB

// frameChunk is the first read buffer of a frame body; study frames fit in
// it, larger ones grow as their bytes arrive.
const frameChunk = 64 << 10

// request is one unit of work sent coordinator -> worker.
type request struct {
	ID   int             `json:"id"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

// response is one completed unit sent worker -> coordinator. Exactly one of
// Body and Error is meaningful; Error carries application errors in-band so
// they are not confused with worker crashes.
type response struct {
	ID    int             `json:"id"`
	Body  json.RawMessage `json:"body,omitempty"`
	Error string          `json:"error,omitempty"`
}

// writeFrame marshals v and writes it as one length-prefixed frame.
func writeFrame(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dispatch: marshal frame: %w", err)
	}
	if len(data) > MaxFrame {
		return fmt.Errorf("dispatch: frame of %d bytes exceeds limit %d", len(data), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// readFrame reads one length-prefixed frame and unmarshals it into v.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return fmt.Errorf("dispatch: malformed frame length %d", n)
	}
	// The body is read as it arrives: the buffer starts at frameChunk and
	// doubles, never past n, so a header whose body never comes costs one
	// chunk, not the length it claims.
	data := make([]byte, 0, min(int(n), frameChunk))
	for len(data) < int(n) {
		if len(data) == cap(data) {
			data = slices.Grow(data, min(int(n)-len(data), len(data)))
		}
		end := min(cap(data), int(n))
		if _, err := io.ReadFull(r, data[len(data):end]); err != nil {
			return fmt.Errorf("dispatch: truncated frame: %w", err)
		}
		data = data[:end]
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("dispatch: malformed frame payload: %w", err)
	}
	return nil
}

// Handler executes one work unit inside a worker process and returns the
// serialized result.
type Handler func(kind string, body json.RawMessage) (json.RawMessage, error)

// Serve runs the worker side of the protocol: read request frames from r
// until EOF, execute each through h, and write a response frame per request
// to w. Handler errors — including recovered panics — are reported in-band
// as response frames, so a deterministic job failure is an answered unit,
// not a dead worker. Serve returns nil on clean EOF.
func Serve(r io.Reader, w io.Writer, h Handler) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	for {
		var req request
		if err := readFrame(br, &req); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		resp := response{ID: req.ID}
		body, err := serveOne(h, req)
		if err != nil {
			resp.Error = err.Error()
		} else {
			resp.Body = body
		}
		if err := writeFrame(bw, resp); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// serveOne runs the handler with panics converted to in-band errors: a
// deterministic panic must fail the unit identically on every attempt rather
// than kill the worker and look like an environmental crash.
func serveOne(h Handler, req request) (body json.RawMessage, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("worker panic on unit %d: %v", req.ID, p)
		}
	}()
	return h(req.Kind, req.Body)
}

// Unit is one serialized work unit for a Pool run.
type Unit struct {
	// Kind routes the unit to a handler in the worker.
	Kind string
	// Body is the unit's opaque JSON payload.
	Body json.RawMessage
}

// Pool executes work units across worker subprocesses.
type Pool struct {
	// Command is the worker argv. Empty means "this executable with a
	// -worker argument", which is what cmd/hyperprof serves.
	Command []string
	// Env is appended to the inherited environment of every worker.
	Env []string
	// Workers bounds the concurrent subprocesses (<= 0: one per CPU is the
	// caller's job to resolve; the pool treats it as 1).
	Workers int
	// UnitTimeout bounds one unit's wall-clock time per attempt; on expiry
	// the worker is killed and the unit retried. 0 disables the timeout.
	UnitTimeout time.Duration
	// Retries is how many times a unit is re-dispatched after a transport
	// failure (crash, timeout, malformed frame). Application errors returned
	// by the handler are deterministic and never retried.
	Retries int
	// Stderr receives the workers' stderr (default os.Stderr).
	Stderr io.Writer
}

// workerProc is one live worker subprocess owned by a single pool worker
// goroutine, so its pipes are never shared.
type workerProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// start spawns a fresh worker subprocess.
func (p *Pool) start() (*workerProc, error) {
	argv := p.Command
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("dispatch: resolve worker executable: %w", err)
		}
		argv = []string{exe, "-worker"}
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	if len(p.Env) > 0 {
		cmd.Env = append(os.Environ(), p.Env...)
	}
	if p.Stderr != nil {
		cmd.Stderr = p.Stderr
	} else {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dispatch: start worker %q: %w", argv[0], err)
	}
	return &workerProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}, nil
}

// stop kills the worker and reaps it.
func (wp *workerProc) stop() {
	if wp == nil {
		return
	}
	wp.stdin.Close()
	wp.cmd.Process.Kill()
	wp.cmd.Wait()
}

// errTimeout marks an attempt abandoned by the per-unit timer.
var errTimeout = fmt.Errorf("unit timed out")

// do runs one request on the worker and waits for its response, bounded by
// timeout. On timeout the process is killed, which unblocks the pending
// read; the caller must discard the worker either way a transport error is
// returned.
func (wp *workerProc) do(req request, timeout time.Duration) (response, error) {
	if err := writeFrame(wp.stdin, req); err != nil {
		return response{}, fmt.Errorf("dispatch: send unit %d: %w", req.ID, err)
	}
	type outcome struct {
		resp response
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		var resp response
		err := readFrame(wp.out, &resp)
		ch <- outcome{resp, err}
	}()
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-timer:
		wp.cmd.Process.Kill()
		<-ch // the killed pipe errors out promptly; reap the reader
		return response{}, fmt.Errorf("dispatch: unit %d: %w after %v", req.ID, errTimeout, timeout)
	case o := <-ch:
		if o.err != nil {
			return response{}, fmt.Errorf("dispatch: unit %d: %w", req.ID, o.err)
		}
		if o.resp.ID != req.ID {
			return response{}, fmt.Errorf("dispatch: unit %d: response for unit %d out of order", req.ID, o.resp.ID)
		}
		return o.resp, nil
	}
}

// Run executes the units and returns their result bodies in unit order. If
// any unit ultimately fails — after bounded retries for transport failures,
// immediately for application errors — the error of the lowest-indexed
// failing unit is returned, so the reported failure is deterministic
// regardless of which worker hit it first. All units are attempted before
// Run returns: one poisoned unit does not abandon the rest of the study.
func (p *Pool) Run(units []Unit) ([]json.RawMessage, error) {
	results := make([]json.RawMessage, len(units))
	errs := make([]error, len(units))
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(units) {
		workers = len(units)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var proc *workerProc
			defer func() { proc.stop() }()
			for i := range next {
				results[i], errs[i] = p.runUnit(&proc, i, units[i])
			}
		}()
	}
	for i := range units {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dispatch: unit %d (%s): %w", i, units[i].Kind, err)
		}
	}
	return results, nil
}

// runUnit drives one unit through attempt/respawn cycles on the goroutine's
// worker process, replacing *proc as processes are recycled.
func (p *Pool) runUnit(proc **workerProc, id int, u Unit) (json.RawMessage, error) {
	retries := p.Retries
	if retries < 0 {
		retries = 0
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if *proc == nil {
			fresh, err := p.start()
			if err != nil {
				// Spawning failed outright (bad command, fork limits);
				// retrying with the same command is still worth one shot.
				lastErr = err
				continue
			}
			*proc = fresh
		}
		resp, err := (*proc).do(request{ID: id, Kind: u.Kind, Body: u.Body}, p.UnitTimeout)
		if err != nil {
			// Transport failure: the worker is in an unknown state, so
			// recycle it and burn one retry.
			(*proc).stop()
			*proc = nil
			lastErr = err
			continue
		}
		if resp.Error != "" {
			// Application error: deterministic, never retried.
			return nil, fmt.Errorf("%s", resp.Error)
		}
		return resp.Body, nil
	}
	return nil, fmt.Errorf("%w (after %d attempts)", lastErr, retries+1)
}
