package server

import (
	"net/http"
	"sync"

	"repro/internal/report"
)

// feed is the event log of one live run or study with fan-out to its
// SSE streams: every published event is recorded (a late subscriber
// replays the log first) and offered to the current subscribers, and done
// closes exactly once when the registry record reached its terminal
// state.
type feed[T any] struct {
	mu     sync.Mutex
	events []T
	subs   map[chan T]bool
	// budget bounds the events the feed will ever publish; subscriber
	// channels are buffered for all of them, so publish never blocks the
	// producer on a slow stream.
	budget int

	done     chan struct{}
	doneOnce sync.Once
}

func newFeed[T any](budget int) *feed[T] {
	return &feed[T]{subs: map[chan T]bool{}, budget: budget, done: make(chan struct{})}
}

// publish records one event and fans it out to the subscribed streams.
func (f *feed[T]) publish(ev T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.events = append(f.events, ev)
	for ch := range f.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe returns a snapshot of the events so far plus a live channel
// for the rest; the caller must invoke the returned unsubscribe.
func (f *feed[T]) subscribe() ([]T, chan T, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	snap := append([]T(nil), f.events...)
	ch := make(chan T, f.budget+1)
	f.subs[ch] = true
	return snap, ch, func() {
		f.mu.Lock()
		delete(f.subs, ch)
		f.mu.Unlock()
	}
}

// markDone closes the done channel exactly once, after the registry
// record reached its final state.
func (f *feed[T]) markDone() { f.doneOnce.Do(func() { close(f.done) }) }

// replayFeed renders a finished run or study as the same frame sequence
// a live stream produces: the head frame with the record, one event
// frame per recorded event, done.
func replayFeed[T, R any](w http.ResponseWriter, head, event string, rec R, events []T) {
	fl := sseHeaders(w)
	if fl == nil {
		return
	}
	report.SSE(w, head, rec)
	for _, ev := range events {
		report.SSE(w, event, ev)
	}
	report.SSE(w, "done", rec)
	fl.Flush()
}

// streamFeed streams a live feed: a head frame with the registry record
// (the client learns the id), event frames as they are published
// (recorded ones are replayed first), and a terminal "done" frame with
// the final record. hangUp runs when the client disconnects first: nil
// detaches without consequence, an owning stream cancels its run there.
func streamFeed[T, R any](w http.ResponseWriter, r *http.Request, f *feed[T],
	head, event string, record func() R, hangUp func()) {

	fl := sseHeaders(w)
	if fl == nil {
		return
	}
	report.SSE(w, head, record())
	fl.Flush()

	snap, ch, unsub := f.subscribe()
	defer unsub()
	for _, ev := range snap {
		report.SSE(w, event, ev)
	}
	fl.Flush()

	for {
		select {
		case ev := <-ch:
			report.SSE(w, event, ev)
			fl.Flush()
		case <-r.Context().Done():
			if hangUp != nil {
				hangUp()
			}
			return
		case <-f.done:
			// Drain events that raced the close.
			for {
				select {
				case ev := <-ch:
					report.SSE(w, event, ev)
					continue
				default:
				}
				break
			}
			report.SSE(w, "done", record())
			fl.Flush()
			return
		}
	}
}
