package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ListenAndServe is the life of a daemon around the front: it listens
// on addr, serves until SIGTERM/SIGINT arrives or ctx ends, then drains — first the query layer (in-flight
// queries complete, new ones get 503 through the still-open listener),
// then the HTTP layer closes idle connections and the listener — giving
// up after drainTimeout. Progress goes to stderr under the daemon's
// name. listening is called with the bound address once it is known;
// drained, when non-nil, runs between the two drain steps, which is
// where a daemon closes the backend its queries ran on.
func (s *Server) ListenAndServe(ctx context.Context, name, addr string, drainTimeout time.Duration, listening func(net.Addr), drained func()) error {
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	listening(ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return err
	}

	fmt.Fprintf(os.Stderr, "%s: draining\n", name)
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain incomplete: %v\n", name, err)
	}
	if drained != nil {
		drained()
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: drained, bye\n", name)
	return nil
}
