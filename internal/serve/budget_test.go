package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expertise"
)

// TestBudgetContract pins the miss's budget context to what a
// context.WithDeadline child of the same parent would report, without
// its timer: the deadline, the error read from the clock before anyone
// waits, a Done that closes at the deadline once asked for, the
// parent's cancellation and values showing through, and a release
// that ends it once however often it is called.
func TestBudgetContract(t *testing.T) {
	type key struct{}
	bg := context.WithValue(context.Background(), key{}, "request")
	now := time.Now()

	t.Run("deadline is the earlier one", func(t *testing.T) {
		parent, cancel := context.WithDeadline(bg, now.Add(time.Minute))
		defer cancel()
		for _, c := range []struct {
			own, want time.Time
		}{
			{now.Add(time.Second), now.Add(time.Second)},
			{now.Add(time.Hour), now.Add(time.Minute)},
		} {
			b := &budget{parent: parent, deadline: c.own}
			if d, ok := b.Deadline(); !ok || !d.Equal(c.want) {
				t.Errorf("own %v under a parent's %v: Deadline() = %v, %v; want %v", c.own, now.Add(time.Minute), d, ok, c.want)
			}
			b.release()
		}
		b := &budget{parent: bg, deadline: now.Add(time.Second)}
		defer b.release()
		if d, ok := b.Deadline(); !ok || !d.Equal(now.Add(time.Second)) {
			t.Errorf("no parent deadline: Deadline() = %v, %v", d, ok)
		}
	})

	t.Run("err reads the clock before any Done", func(t *testing.T) {
		b := &budget{parent: bg, deadline: time.Now().Add(20 * time.Millisecond)}
		defer b.release()
		if err := b.Err(); err != nil {
			t.Fatalf("before the deadline: Err() = %v", err)
		}
		time.Sleep(25 * time.Millisecond)
		if err := b.Err(); err != context.DeadlineExceeded {
			t.Fatalf("past the deadline: Err() = %v, want DeadlineExceeded", err)
		}
		if b.armed != nil {
			t.Fatal("Err armed a timer")
		}
	})

	t.Run("a lazily armed Done closes at the deadline", func(t *testing.T) {
		deadline := time.Now().Add(20 * time.Millisecond)
		b := &budget{parent: bg, deadline: deadline}
		defer b.release()
		select {
		case <-b.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("Done never closed")
		}
		if time.Now().Before(deadline) {
			t.Fatal("Done closed before the deadline")
		}
		if err := b.Err(); err != context.DeadlineExceeded {
			t.Fatalf("after Done: Err() = %v, want DeadlineExceeded", err)
		}
		if b.Done() != b.Done() {
			t.Fatal("Done armed a second timer")
		}
	})

	t.Run("the parent's cancellation shows through", func(t *testing.T) {
		for _, armFirst := range []bool{false, true} {
			parent, cancel := context.WithCancel(bg)
			b := &budget{parent: parent, deadline: time.Now().Add(time.Hour)}
			if armFirst {
				b.Done()
			}
			cancel()
			if err := b.Err(); err != context.Canceled {
				t.Errorf("armed first %v: Err() = %v, want Canceled", armFirst, err)
			}
			select {
			case <-b.Done():
			case <-time.After(5 * time.Second):
				t.Errorf("armed first %v: Done did not close on the parent's cancel", armFirst)
			}
			b.release()
		}
	})

	t.Run("values pass through", func(t *testing.T) {
		b := &budget{parent: bg, deadline: time.Now().Add(time.Hour)}
		defer b.release()
		if v := b.Value(key{}); v != "request" {
			t.Fatalf("Value = %v", v)
		}
	})

	t.Run("release is idempotent", func(t *testing.T) {
		for _, armFirst := range []bool{false, true} {
			b := &budget{parent: bg, deadline: time.Now().Add(time.Hour)}
			if armFirst {
				b.Done()
			}
			b.release()
			b.release()
			if err := b.Err(); err != context.Canceled {
				t.Errorf("armed first %v: released Err() = %v, want Canceled", armFirst, err)
			}
			select {
			case <-b.Done():
			default:
				t.Errorf("armed first %v: released Done is open", armFirst)
			}
		}
	})
}

// TestBudgetConcurrentDoneErrRelease hammers one budget the way a miss
// and the code under it may: Done, Err and release from many
// goroutines at once. Run under -race; every Done must close and every
// Err after a closed Done must be non-nil.
func TestBudgetConcurrentDoneErrRelease(t *testing.T) {
	for round := 0; round < 50; round++ {
		b := &budget{parent: context.Background(), deadline: time.Now().Add(time.Hour)}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 3 {
				case 0:
					b.release()
				case 1:
					b.Err()
				default:
					<-b.Done()
					if err := b.Err(); err == nil {
						errs <- errors.New("Done closed while Err reads nil")
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// armingBackend computes under its context the way a remote shard
// waits on one — it arms the budget's timer — and keeps the context it
// was handed.
type armingBackend struct {
	fixedBackend
	ctx context.Context
}

func (b *armingBackend) SearchContext(ctx context.Context, query string) ([]expertise.Expert, core.SearchTrace, error) {
	b.ctx = ctx
	ctx.Done()
	return b.fixedBackend.SearchContext(ctx, query)
}

// TestFlightBudgetDropsRequest pins what a cached result keeps of the
// request that computed it: the leader ran under its flight's budget,
// and once the miss returned that budget holds neither the request's
// context nor a timer built on it.
func TestFlightBudgetDropsRequest(t *testing.T) {
	backend := &armingBackend{fixedBackend: fixedBackend{ranking: []expertise.Expert{{User: 1, Score: 1}}}}
	backend.components = make([]atomic.Uint64, 1)
	s := New(backend, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, _, err := s.Answer(ctx, "niners", time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	res := s.slots["niners"].Value.(*slot).res // its own term set
	s.mu.Unlock()
	if backend.ctx != &res.budget {
		t.Fatalf("the leader ran under %T, not its flight's budget", backend.ctx)
	}
	res.budget.mu.Lock()
	defer res.budget.mu.Unlock()
	if res.budget.parent != nil || res.budget.armed != nil || res.budget.cancel != nil {
		t.Fatal("a cached result's budget still holds the request's context")
	}
}
