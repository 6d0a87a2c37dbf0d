package obs

import (
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is a running expvar/pprof endpoint with a shutdown path.
// Callers own its lifecycle: Close must be called on teardown, and it
// returns the background Serve error if the listener died early —
// previously that error was silently dropped, so a debug server killed
// by the OS looked identical to one that was never scraped.
type DebugServer struct {
	srv      *http.Server
	addr     net.Addr
	serveErr chan error // buffered; receives Serve's return exactly once
}

// Addr is the bound listen address (useful with ":0").
func (d *DebugServer) Addr() net.Addr { return d.addr }

// Close stops the server immediately, severing open connections, and
// returns the error Serve exited with (nil on clean shutdown).
func (d *DebugServer) Close() error {
	cerr := d.srv.Close()
	if err := d.waitServe(); err != nil {
		return err
	}
	return cerr
}

func (d *DebugServer) waitServe() error {
	err := <-d.serveErr
	d.serveErr <- err // re-arm so a second Close is safe
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// StartDebugServer serves expvar (/debug/vars) and net/http/pprof
// (/debug/pprof/...) on addr in a background goroutine, returning once
// the listener is bound so the caller can report the actual address
// (use ":0" for an ephemeral port). The caller must Close the returned
// server on teardown. A dedicated mux is used so importing this package
// never publishes handlers on http.DefaultServeMux.
func StartDebugServer(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d := &DebugServer{
		srv:      &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		addr:     ln.Addr(),
		serveErr: make(chan error, 1),
	}
	go func() {
		d.serveErr <- d.srv.Serve(ln)
	}()
	return d, nil
}
