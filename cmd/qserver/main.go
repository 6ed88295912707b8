// Command qserver serves the networked statistical-query interface: a
// synthetic dataset behind the exact, sticky-Laplace and Diffix-style
// counting-query backends of internal/query/remote, with per-analyst
// budget accounting, an answer cache, bounded concurrent request
// handling, and the repository's live observability surface on the same
// listener.
//
// Usage:
//
//	qserver [-addr :8090] [-n 96] [-seed 42] [-p 0.5]
//	        [-eps 1] [-sd 1.5] [-threshold 8]
//	        [-budget 0] [-max-batch 4096] [-max-concurrent 16] [-workers 0]
//	        [-shards 1] [-queue-depth 64] [-wal ledger.wal] [-wal-sync]
//	        [-metrics journal.jsonl]
//
// -shards partitions the answer cache across independent locks, hashing
// each query's cache key mod the shard count; the privacy-loss ledger and
// the admission gate are one per server. -max-concurrent bounds the
// requests served at once and -queue-depth the ones waiting for a slot
// (excess load is shed with a typed "overloaded" refusal). -wal makes
// the ledger durable: every spend/refund/deny is appended to the file
// before it takes effect, and a restart replays it — spent budget
// survives the restart.
//
// Endpoints:
//
//	GET  /v1/meta                dataset/backends/budget metadata
//	POST /v1/query/{backend}     answer a batch (backend: exact, laplace, diffix)
//	GET  /v1/ledger              append-only privacy-loss ledger (?analyst= filters)
//	GET  /metrics /snapshot /healthz /journal /trace /debug/pprof/   observability
//
// Attacks run against it with `reconstruct -remote http://host:port`; the
// dataset never leaves the server — evaluation harnesses regenerate it
// locally from the advertised (seed, n, p).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
	"singlingout/internal/query/remote"
)

func main() {
	os.Exit(run(os.Args[1:], nil))
}

// run is main minus the process exit, with an optional ready callback
// receiving the bound address (tests use it to dial the server).
func run(args []string, ready func(addr string)) int {
	fs := flag.NewFlagSet("qserver", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address (:0 picks a port)")
	n := fs.Int("n", 96, "dataset size")
	seed := fs.Int64("seed", 42, "dataset + sticky-noise seed")
	p := fs.Float64("p", 0.5, "Bernoulli parameter of the protected bit")
	eps := fs.Float64("eps", 1, "laplace backend: per-query epsilon")
	sd := fs.Float64("sd", 1.5, "diffix backend: sticky noise standard deviation")
	threshold := fs.Int("threshold", 8, "diffix backend: low-count suppression bound")
	budget := fs.Int("budget", 0, "per-analyst fresh-query budget (0 = unlimited)")
	maxBatch := fs.Int("max-batch", 4096, "largest accepted query batch")
	maxConcurrent := fs.Int("max-concurrent", 16, "requests served at once, server-wide")
	workers := fs.Int("workers", 0, "pool workers per fresh sub-batch (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 1, "answer-cache partitions (hash mod shards; answers are shard-count invariant)")
	queueDepth := fs.Int("queue-depth", 64, "requests waiting for a slot, server-wide (-1 = no waiting room)")
	walPath := fs.String("wal", "", "ledger write-ahead log file (durable budget accounting across restarts)")
	walSync := fs.Bool("wal-sync", false, "fsync the ledger WAL after every entry")
	metricsPath := fs.String("metrics", "", "write a JSONL journal (one event per query batch) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Handle SIGTERM/SIGINT from here on, before the listener serves and
	// before ready: a signal during startup must still shut down through
	// the deferred Close that syncs the WAL, not kill the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The whole service is one long observation; metrics and span tracing
	// are always on — /trace serves the collected server-side spans so a
	// remote client can merge them into its own Chrome trace export.
	obs.Default().SetEnabled(true)
	obs.DefaultTracer().SetEnabled(true)
	var journalFile *os.File
	journalSink := io.Writer(io.Discard) // SSE /journal still streams events
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qserver: %v\n", err)
			return 1
		}
		journalFile = f
		journalSink = f
		defer f.Close()
	}
	journal := obs.NewJournal(journalSink)

	rsrv, err := remote.NewServer(remote.ServerConfig{
		N: *n, Seed: *seed, P: *p,
		Eps: *eps, SD: *sd, Threshold: *threshold,
		Budget: *budget, MaxBatch: *maxBatch,
		MaxConcurrent: *maxConcurrent, Workers: *workers,
		Shards: *shards, QueueDepth: *queueDepth,
		WALPath: *walPath, WALSync: *walSync,
		Journal: journal,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qserver: %v\n", err)
		return 1
	}
	defer rsrv.Close()
	osrv := serve.New(obs.Default(), journal)
	osrv.SetPhase("serving")

	// One listener: the query API under /v1/, the observability surface
	// (Prometheus /metrics, /snapshot, /healthz, SSE /journal, /trace,
	// pprof) at /.
	mux := http.NewServeMux()
	mux.Handle("/v1/", rsrv.Handler())
	mux.Handle("/", osrv.Handler())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qserver: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	meta := rsrv.Meta()
	fmt.Fprintf(os.Stderr, "qserver: dataset n=%d seed=%d p=%g; backends %v; budget=%d shards=%d wal=%q\n",
		meta.N, meta.Seed, meta.P, meta.Backends, meta.Budget, *shards, *walPath)
	fmt.Fprintf(os.Stderr, "qserver: query API at http://%s/v1/ — observability at http://%s/\n", bound, bound)
	_ = journal.Emit(obs.Event{
		Phase: "serve_start",
		Seed:  *seed,
		Sizes: map[string]int{"n": *n, "budget": *budget, "max_batch": *maxBatch, "max_concurrent": *maxConcurrent, "shards": *shards},
	})

	hs := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if ready != nil {
		ready(bound)
	}

	status := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "qserver: shutting down")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "qserver: %v\n", err)
			status = 1
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "qserver: shutdown: %v\n", err)
		status = 1
	}
	_ = journal.Emit(obs.Event{Phase: "serve_end", Seed: *seed})
	if journalFile != nil {
		if err := journalFile.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "qserver: journal: %v\n", err)
			status = 1
		}
	}
	return status
}
