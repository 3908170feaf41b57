package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedAdmitter answers by name prefix: "ghost" is not consolidated,
// "full" finds no room, anything else succeeds.
type scriptedAdmitter struct{}

func scripted(name string) error {
	switch {
	case strings.HasPrefix(name, "ghost"):
		return Reject(http.StatusNotFound, CodeUnknownApp, "no active app %q", name)
	case strings.HasPrefix(name, "full"):
		return Reject(http.StatusConflict, CodeMachineFull, "no room for %q", name)
	}
	return nil
}

func (scriptedAdmitter) AddApp(s AppSpec) error                { return scripted(s.Name) }
func (scriptedAdmitter) RemoveApp(name string) error           { return scripted(name) }
func (scriptedAdmitter) Reweight(name string, _ float64) error { return scripted(name) }
func (scriptedAdmitter) Snapshot() ([]byte, error)             { return []byte(`{}`), nil }

// TestRepliesFromBusyController: a controller that drains in a loop and
// never blocks still answers every client, each with its scripted status.
func TestRepliesFromBusyController(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2: with one P the spinning controller holds it until preempted")
	}
	p := New(scriptedAdmitter{}, &fakeStatus{}, nil)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	var stop atomic.Bool
	controller := make(chan struct{})
	go func() {
		defer close(controller)
		for !stop.Load() {
			p.Drain()
		}
	}()
	defer func() { stop.Store(true); <-controller }()

	const clients, perClient = 4, 200
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				name := fmt.Sprintf("%s-%d-%d", []string{"app", "ghost", "full"}[(c+i)%3], c, i)
				method, path, body, okStatus := "POST", "/apps", []byte(fmt.Sprintf(`{"name":%q}`, name)), http.StatusCreated
				switch i % 3 {
				case 1:
					method, path, body, okStatus = "PATCH", "/apps/"+name, []byte(`{"weight":1.5}`), http.StatusOK
				case 2:
					method, path, body, okStatus = "DELETE", "/apps/"+name, nil, http.StatusOK
				}
				want, wantCode := okStatus, ""
				if rej, ok := scripted(name).(*Rejection); ok {
					want, wantCode = rej.Status, rej.Code
				}
				got, gotCode, err := request(client, method, srv.URL+path, body)
				if err == nil && (got != want || gotCode != wantCode) {
					err = fmt.Errorf("%s %s = %d %q, want %d %q", method, path, got, gotCode, want, wantCode)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ok, rejected := p.AdmissionStats(); ok+rejected != clients*perClient {
		t.Errorf("AdmissionStats = %d + %d, want %d applied", ok, rejected, clients*perClient)
	}
}

// request sends one mutation and returns its status and rejection code.
func request(c *http.Client, method, url string, body []byte) (int, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var decoded struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, decoded.Code, nil
}

// submitAll runs n concurrent submits against p, drains until every one
// has returned, and fails on any result but success.
func submitAll(t *testing.T, p *Plane, n int) {
	t.Helper()
	results := make(chan opResult, n)
	for i := 0; i < n; i++ {
		go func() { results <- p.submit(op{kind: opRemove, name: "x"}) }()
	}
	for got := 0; got < n; {
		p.Drain()
		select {
		case res := <-results:
			if res.err != nil {
				t.Errorf("submit: %v", res.err)
			}
			got++
		default:
		}
	}
}

// TestRelayFallback: without a relay, with its queue full, or with its
// wake write failing, Drain answers on its own goroutine and no reply
// is lost.
func TestRelayFallback(t *testing.T) {
	const n = 8
	newPlane := func() *Plane {
		return New(&fakeAdmitter{}, &fakeStatus{}, nil, WithQueueDepth(n), WithOpTimeout(5*time.Second))
	}

	t.Run("absent", func(t *testing.T) {
		p := newPlane()
		p.relayOnce.Do(func() {}) // as if the pipe could not be made
		submitAll(t, p, n)
	})

	t.Run("queue full", func(t *testing.T) {
		p := newPlane()
		p.relayOnce.Do(p.startRelay)
		// Hold the relay asleep with its queue full of earlier answers.
		p.relay.pending.Store(true)
		held := make([]chan opResult, 0, cap(p.relay.q))
		for len(held) < cap(p.relay.q) {
			reply := make(chan opResult, 1)
			p.relay.q <- answer{reply: reply}
			held = append(held, reply)
		}
		submitAll(t, p, n)
		// Wake the relay: the held answers still arrive.
		p.relay.pending.Store(false)
		p.relay.wake()
		for i, reply := range held {
			select {
			case <-reply:
			case <-time.After(5 * time.Second):
				t.Fatalf("held answer %d never delivered", i)
			}
		}
	})

	t.Run("wake fails", func(t *testing.T) {
		p := newPlane()
		p.relayOnce.Do(p.startRelay)
		p.relay.w.Close() // the next wake write fails
		submitAll(t, p, n)
		if p.relay.w != nil {
			t.Error("relay kept after its wake write failed")
		}
		submitAll(t, p, n)
	})
}

// TestRelayEndsWithPlane: a dropped plane's relay goroutine exits, and a
// plane driven only by Enqueue and Drain never starts one.
func TestRelayEndsWithPlane(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		p := New(&fakeAdmitter{}, &fakeStatus{}, nil)
		submitAll(t, p, 1)
		if p.relay.w == nil {
			t.Fatal("serving a mutation did not start the relay")
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a dropped plane later, want %d: its relay outlives it", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}

	base = runtime.NumGoroutine()
	p := New(&fakeAdmitter{}, &fakeStatus{}, nil)
	if err := p.EnqueueAdd(AppSpec{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	p.Drain()
	if n := runtime.NumGoroutine(); n > base || p.relay.w != nil {
		t.Errorf("an Enqueue-only plane started a relay (%d goroutines, was %d)", n, base)
	}
}

// BenchmarkAdmitRoundTrip times one admit → reweight → evict cycle over
// loopback HTTP against a free-running controller.
func BenchmarkAdmitRoundTrip(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs GOMAXPROCS >= 2: with one P the free-running controller holds it until preempted")
	}
	_, srv, _ := liveSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("g%d", i)
		for _, step := range []struct {
			method, path string
			body         interface{}
			want         int
		}{
			{"POST", "/apps", AppSpec{Name: name, Benchmark: "EP", Cores: 1, Weight: 2}, http.StatusCreated},
			{"PATCH", "/apps/" + name, map[string]float64{"weight": 1.5}, http.StatusOK},
			{"DELETE", "/apps/" + name, nil, http.StatusOK},
		} {
			if code, _, raw := doReq(b, step.method, srv.URL+step.path, step.body); code != step.want {
				b.Fatalf("%s %s = %d, want %d: %s", step.method, step.path, code, step.want, raw)
			}
		}
	}
}
