package controlplane

import (
	"os"
	"sync/atomic"
)

// answer is one reply waiting for the relay to deliver it.
type answer struct {
	reply chan opResult
	res   opResult
}

// relay is the controller's side of the reply relay, a goroutine parked
// in Read on a pipe that sends Drain's replies for it.
//
// The controller runs free: between periods it drains the queue and goes
// straight on to the next period, never blocking. A channel send from it
// readies the waiting handler into the runnext slot of the controller's
// own P, and another P takes a goroutine from that slot only in its last
// steal round, after a usleep(3) that Linux timer slack stretches to
// ~60 µs. A write to the pipe instead wakes the relay through the
// netpoller on whichever P polls; the relay sends the replies there, and
// each handler runs on that P at once. Application order, statuses and
// bodies are the controller's as before; only the last hop moves.
//
// The relay goroutine holds the read end, the queue and the pending
// flag, never the Plane or the write end: a dropped Plane's write end is
// closed by its finalizer, and the relay reads EOF and exits. The flag is
// allocated on its own for the same reason — a pointer into relay would
// keep the write end reachable from the goroutine for ever.
//
// The zero relay (no write end) sends every reply directly.
type relay struct {
	w       *os.File
	q       chan answer
	pending *atomic.Bool // a wake byte is in flight
}

// wakeByte is what the controller writes to wake the relay.
var wakeByte = []byte{1}

// startRelay starts the reply relay. It runs once, on the first submit,
// so planes driven only by Enqueue* and Drain never start it; if the pipe
// cannot be made, replies stay on the controller goroutine.
func (p *Plane) startRelay() {
	r, w, err := os.Pipe()
	if err != nil {
		return
	}
	// One queue's worth of answers fits between two wakes; a Drain that
	// answers more than that sends the rest directly.
	rl := relay{w: w, q: make(chan answer, cap(p.ops)), pending: new(atomic.Bool)}
	go relayLoop(r, rl.q, rl.pending)
	p.relay = rl
}

// relayLoop delivers queued answers each time a wake byte arrives, until
// the write end is closed.
func relayLoop(r *os.File, q chan answer, pending *atomic.Bool) {
	var buf [64]byte
	for {
		_, err := r.Read(buf[:])
		// Cleared before the queue is read: an answer queued after this
		// point wakes the relay again, so none waits for a later Drain.
		pending.Store(false)
		deliver(q)
		if err != nil {
			r.Close()
			return
		}
	}
}

// deliver sends every queued answer to its handler. Reply channels are
// buffered for their one reply, so it never blocks.
func deliver(q chan answer) {
	for {
		select {
		case a := <-q:
			a.reply <- a.res
		default:
			return
		}
	}
}

// send queues a reply for the relay and reports whether it did; without
// a relay, or with its queue full, it replies directly.
func (rl *relay) send(reply chan opResult, res opResult) bool {
	if rl.w != nil {
		select {
		case rl.q <- answer{reply, res}:
			return true
		default:
		}
	}
	reply <- res
	return false
}

// wake writes the wake byte unless one is already in flight. If the write
// fails, the relay is given up: the queued answers are delivered here and
// every later reply is sent directly.
func (rl *relay) wake() {
	if !rl.pending.CompareAndSwap(false, true) {
		return
	}
	if _, err := rl.w.Write(wakeByte); err != nil {
		rl.w.Close()
		rl.w = nil
		deliver(rl.q)
	}
}
