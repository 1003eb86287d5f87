package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// How a Result went wrong, as recorded by the result callback.
const (
	badOutcome = 1 // the outcome was not completed
	badRepeat  = 2 // the class differs from the gesture's first Result
)

// nackRec is one refused event: the frame's sequence number on its
// connection, the event's index in the frame, and the wire.NackCode.
type nackRec struct {
	seq  int32
	idx  uint16
	code wire.NackCode
}

// connRun is what one connection's driver recorded, by frame sequence
// number.
type connRun struct {
	sent  []int64 // when frame seq was written, ns after the epoch
	ack   []int64 // when its response was read
	nacks []nackRec
	nSent int // frames written
	nAck  int // responses read
	fatal int // connection-fatal responses
	werr  error
	rerr  error
}

// snapshot is the process and engine state at a window edge.
type snapshot struct {
	ns    int64
	cpuNS int64
	alloc uint64
	stats serve.Stats
	// The host's CPU time, all CPUs, and the part of it stolen, in clock
	// ticks since boot; 0 where /proc/stat is not readable.
	totalJ, stealJ int64
}

// pass is one drive of a workload's frames through one booted stack.
type pass struct {
	w       workload
	in      []*connInput
	seconds float64
	traced  bool
	cycles  int // cycles each connection may send: 1 in the open loop

	// t0 is the epoch every recorded time counts from; it is fixed before
	// the stack boots, so the result callback only ever reads it.
	t0 time.Time
	// startNS is when frame due times start counting, ns after t0.
	startNS int64

	// Results by instance, cycle*ids + gesture ID. round counts each
	// gesture's Results so far, which names the cycle of the next one, and
	// class holds its first Result's class: one shard goroutine owns a
	// session, so each gesture's records have one writer.
	ids    int
	round  []uint16
	class  []string
	resNS  []int64 // when the Result arrived, ns after the epoch; 0 for none
	resBad []uint8 // badOutcome, badRepeat, or 0
	cbNS   []int32 // traced: time spent inside the callback
	dupes  atomic.Int64
	stray  atomic.Int64

	conn   []*connRun
	stop   atomic.Bool
	exhaus chan struct{}
	once   sync.Once

	winA, winB snapshot
	maxRSSMB   float64

	// Filled by runPass.
	st     *stack
	setups []float64 // boot times, s
	cc     []*connCheck
	eval   *evaluation
}

// newPass allocates every record the drive fills, so the measured window
// allocates nothing on the harness side.
func newPass(w workload, in []*connInput, seconds float64, traced bool) *pass {
	p := &pass{w: w, in: in, seconds: seconds, traced: traced, cycles: 1, exhaus: make(chan struct{})}
	maxLocal, frames := 0, 0
	for _, ci := range in {
		maxLocal = max(maxLocal, len(ci.gest))
		frames += ci.cycle
	}
	p.ids = maxLocal * conns
	if !w.open {
		// Per cycle: a sent and an ack time per frame, and per gesture
		// instance a Result time, a verdict and, traced, a callback time.
		perCycle := frames*16 + p.ids*13
		p.cycles = min(recordBudget/perCycle, math.MaxUint16)
	}
	for _, ci := range in {
		seqs := ci.cycle * p.cycles
		p.conn = append(p.conn, &connRun{
			sent: make([]int64, seqs),
			ack:  make([]int64, seqs),
			// Refusals are failures on every workload; room for a few
			// keeps the window allocation-free until one happens.
			nacks: make([]nackRec, 0, 1<<12),
		})
	}
	p.round = make([]uint16, p.ids)
	p.class = make([]string, p.ids)
	p.resNS = make([]int64, p.ids*p.cycles)
	p.resBad = make([]uint8, p.ids*p.cycles)
	if traced {
		p.cbNS = make([]int32, len(p.resNS))
	}
	// Touch every page now, so the records count fully in max_rss_mb
	// whatever the throughput, instead of growing with the cycles sent.
	for _, r := range p.conn {
		clear(r.sent)
		clear(r.ack)
	}
	clear(p.resNS)
	clear(p.resBad)
	clear(p.cbNS)
	p.t0 = time.Now()
	return p
}

func (p *pass) since() int64 { return int64(time.Since(p.t0)) }

// instance is the result index of gesture id in cycle.
func (p *pass) instance(cycle, id int) int { return cycle*p.ids + id }

// onResult is the engine's OnResult hook: it records the result under
// its gesture instance.
func (p *pass) onResult(r serve.Result) {
	now := p.since()
	id, ok := parseSession(r.Session)
	if !ok || id >= p.ids {
		p.stray.Add(1)
		return
	}
	cycle := int(p.round[id])
	if cycle >= p.cycles {
		p.dupes.Add(1)
		return
	}
	p.round[id]++
	i := p.instance(cycle, id)
	p.resNS[i] = now
	if cycle == 0 {
		p.class[id] = r.Class
	}
	switch {
	case r.Outcome != serve.OutcomeCompleted:
		p.resBad[i] = badOutcome
	case r.Class != p.class[id]:
		p.resBad[i] = badRepeat
	}
	if p.traced {
		p.cbNS[i] = int32(p.since() - now)
	}
}

// take records a window-edge snapshot.
func (p *pass) take(st *stack) snapshot {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		ns:    p.since(),
		cpuNS: ru.Utime.Nano() + ru.Stime.Nano(),
		alloc: ms.TotalAlloc,
		stats: st.eng.Stats(),
	}
	s.totalJ, s.stealJ = hostTicks()
	return s
}

// hostTicks reads the CPU line of /proc/stat: user, nice, system, idle,
// iowait, irq, softirq and steal ticks. It returns their sum and the
// steal ticks, or zeros where the file is not there.
func hostTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// pace blocks until ns after the epoch in a nanosleep system call. The
// runtime's timers wake an idle process only to the millisecond, which
// would make the open loop send most frames late by up to one tick.
func (p *pass) pace(ns int64) {
	for {
		d := ns - p.since()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR from runtime signals: loop and sleep the rest
	}
}

// drive runs the pass on a booted stack: warmup, measured window, drain.
// It closes the stack before returning, so every result is recorded.
func (p *pass) drive(st *stack) error {
	defer st.close()
	// The first frames are due a little after the drivers start, so the
	// warmup does not open with a backlog.
	p.startNS = p.since() + int64(10*time.Millisecond)
	winStart := p.startNS + int64(warmup)
	winEnd := winStart + int64(p.seconds*float64(time.Second))
	deadline := time.Now().Add(warmup + time.Duration(p.seconds*float64(time.Second)) + time.Minute)

	var wg sync.WaitGroup
	for c, conn := range st.conns {
		if err := conn.SetDeadline(deadline); err != nil {
			return err
		}
		wg.Add(1)
		if p.w.open {
			go func(c int) { defer wg.Done(); p.readOpen(st, c) }(c)
		} else {
			go func(c int) { defer wg.Done(); p.runClosed(st, c) }(c)
		}
	}
	if p.w.open {
		wg.Add(1)
		go func() { defer wg.Done(); p.writeOpen(st) }()
	}
	p.pace(winStart)
	p.winA = p.take(st)
	if p.w.open {
		p.pace(winEnd)
	} else {
		select {
		case <-time.After(time.Duration(winEnd - p.since())):
		case <-p.exhaus:
		}
		p.stop.Store(true)
	}
	p.winB = p.take(st)
	wg.Wait()
	for c, r := range p.conn {
		if err := errors.Join(r.werr, r.rerr); err != nil {
			return fmt.Errorf("connection %d: %w", c, err)
		}
	}
	return st.eng.Flush()
}

// writeOpen sends every connection's frames, each when it falls due,
// whatever the responses are doing. One goroutine paces all connections:
// their frames fall due on the same tick boundaries.
func (p *pass) writeOpen(st *stack) {
	next := make([]int, len(p.in))
	for {
		c := -1
		for i, in := range p.in {
			if next[i] < in.cycle && (c < 0 || in.due[next[i]] < p.in[c].due[next[c]]) {
				c = i
			}
		}
		if c < 0 {
			return
		}
		seq := next[c]
		next[c]++
		p.pace(p.startNS + p.in[c].due[seq])
		if err := p.send(st, c, seq); err != nil {
			p.conn[c].werr = err
			for _, conn := range st.conns {
				conn.Close() // unblocks the readers
			}
			return
		}
	}
}

// send stamps and writes frame seq of connection c.
func (p *pass) send(st *stack, c, seq int) error {
	f := p.in[c].frame(seq)
	now := time.Now()
	binary.LittleEndian.PutUint64(f[3:11], uint64(now.UnixNano()))
	r := p.conn[c]
	r.sent[seq] = int64(now.Sub(p.t0))
	if _, err := st.conns[c].Write(f); err != nil {
		return err
	}
	r.nSent = seq + 1
	return nil
}

// readOpen reads connection c's responses in frame order.
func (p *pass) readOpen(st *stack, c int) {
	br := bufio.NewReaderSize(st.conns[c], 4<<10)
	nacks := make([]wire.Nack, 0, wire.MaxBatch)
	for seq := 0; seq < p.in[c].cycle; seq++ {
		if !p.readAck(br, c, seq, nacks) {
			return
		}
	}
}

// readAck reads frame seq's response; false ends the connection's drive.
func (p *pass) readAck(br *bufio.Reader, c, seq int, nacks []wire.Nack) bool {
	r := p.conn[c]
	resp, err := wire.ReadResponse(br, nacks[:0])
	r.ack[seq] = p.since()
	if err != nil {
		r.rerr = fmt.Errorf("frame %d: %w", seq, err)
		return false
	}
	if resp.Fatal {
		r.fatal++
		return false
	}
	for _, n := range resp.Nacks {
		r.nacks = append(r.nacks, nackRec{seq: int32(seq), idx: uint16(n.Index), code: n.Code})
	}
	r.nAck = seq + 1
	return true
}

// runClosed keeps inFlight frames written and unanswered on connection
// c, writing the next frame as each response arrives, until the window
// closes or the cycles run out.
func (p *pass) runClosed(st *stack, c int) {
	r := p.conn[c]
	br := bufio.NewReaderSize(st.conns[c], 4<<10)
	nacks := make([]wire.Nack, 0, wire.MaxBatch)
	last := len(r.sent)
	next := 0
	for ; next < last && next < inFlight; next++ {
		if err := p.send(st, c, next); err != nil {
			r.werr = err
			return
		}
	}
	for seq := 0; seq < next; seq++ {
		if !p.readAck(br, c, seq, nacks) {
			return
		}
		if next < last && !p.stop.Load() {
			if err := p.send(st, c, next); err != nil {
				r.werr = err
				return
			}
			next++
		}
	}
	if next == last {
		p.once.Do(func() { close(p.exhaus) })
	}
}
