package router

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// followers holds, per test, the close of every replica the test
// started.
var followers = struct {
	sync.Mutex
	closes map[testing.TB][]func()
}{closes: make(map[testing.TB][]func())}

// follow registers a replica's close: it runs once, before the first
// test server of t closes (newTestServer) and at the latest in t's own
// cleanup.
func follow(t testing.TB, close func()) {
	var once sync.Once
	f := func() { once.Do(close) }
	followers.Lock()
	if _, ok := followers.closes[t]; !ok {
		// Registered before every follower's own cleanup, so it runs
		// after all of them.
		t.Cleanup(func() {
			followers.Lock()
			delete(followers.closes, t)
			followers.Unlock()
		})
	}
	followers.closes[t] = append(followers.closes[t], f)
	followers.Unlock()
	t.Cleanup(f)
}

// newTestServer serves h until t ends. Cleanups run last in, first out,
// and a repoint can leave a replica started early tailing a server
// started later, so the server's cleanup first closes every follower of
// t: none still holds a WAL long-poll open against it. It then fails t
// if Close still blocked for more than a second.
func newTestServer(t testing.TB, h http.Handler) *httptest.Server {
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		followers.Lock()
		closes := followers.closes[t]
		followers.Unlock()
		for _, f := range closes {
			f()
		}
		start := time.Now()
		srv.Close()
		if d := time.Since(start); d > time.Second {
			t.Errorf("test server %s took %v to close: a request still held it open", srv.URL, d.Round(time.Millisecond))
		}
	})
	return srv
}
