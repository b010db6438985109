// The serve subcommand: expose an enrolled gallery file as the HTTP
// identification service of internal/serve.
//
//	brainprint gallery enroll -db hcp.bpg -task REST1 -encoding LR
//	brainprint serve -db hcp.bpg -addr 127.0.0.1:7311
//	curl -s localhost:7311/healthz
//	brainprint gallery probe -task REST2 -encoding RL -subject 3 |
//	    curl -s -X POST --data @- localhost:7311/v1/identify
//
// Writable mode (online enrollment, crash-safe via the write-ahead log):
//
//	brainprint gallery live -from hcp.bpg -db hcp.live
//	brainprint serve -db hcp.live -writable
//	curl -s -X POST --data '{"id":"new","fingerprint":[...]}' \
//	    localhost:7311/v1/enroll
//
// Replica mode (WAL-shipping read replica of a live primary):
//
//	brainprint serve -db hcp.live -writable -addr 127.0.0.1:7311
//	brainprint serve -db replica.live -replica-of http://127.0.0.1:7311 \
//	    -addr 127.0.0.1:7312
//	curl -s localhost:7312/healthz   # replication lag under "replica"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"brainprint"
	"brainprint/internal/gallery"
	"brainprint/internal/serve"
)

// runServe loads a gallery (single-file, sharded manifest, or live
// directory), wraps it in an attacker session, and runs the HTTP
// service until SIGINT/SIGTERM. A partially loaded sharded store serves
// in degraded mode (surviving shards only) with a startup warning and a
// "degraded" /healthz status. With -writable (live directories only)
// the service additionally accepts online enrollment and deletion, and
// mutations survive crashes via the write-ahead log.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brainprint serve", flag.ContinueOnError)
	var (
		db           = fs.String("db", "", "gallery file, shard manifest, or live directory to serve (required)")
		addr         = fs.String("addr", "127.0.0.1:7311", "listen address (loopback by default; widen deliberately)")
		k            = fs.Int("k", 5, "default candidates per identification (requests may override with \"k\")")
		timeout      = fs.Duration("timeout", 30*time.Second, "per-request identification deadline")
		parallelism  = fs.Int("parallelism", 0, "worker count for identification sweeps (0 = all cores)")
		maxInflight  = fs.Int("max-inflight", 0, "bound on concurrently served requests (0 = 4x workers)")
		writable     = fs.Bool("writable", false, "accept online enrollment/deletion (requires a live gallery directory; see gallery live)")
		replicaOf    = fs.String("replica-of", "", "serve as a read replica of the primary at this base URL, keeping replica state in the -db directory")
		drain        = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound: how long in-flight and streaming requests get to finish")
		compactAfter = fs.Int("compact-after", 0, "auto-compact the live gallery once its write-ahead log holds this many records (0 = manual gallery compact only)")
		ann          = fs.Bool("ann", false, "serve through the IVF coarse index at the default fan-out (requires a `gallery index` sidecar)")
		nprobe       = fs.Int("nprobe", 0, "IVF cells to probe per identification (implies -ann; 0 with -ann = the default fan-out)")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *db == "" {
		return fmt.Errorf("serve: -db is required")
	}
	if *nprobe < 0 {
		return fmt.Errorf("serve: -nprobe %d must be non-negative", *nprobe)
	}
	np := 0
	if *ann || *nprobe > 0 {
		if np = *nprobe; np == 0 {
			np = brainprint.DefaultNProbe
		}
	}

	sessionOpts := []brainprint.AttackerOption{
		brainprint.WithParallelism(*parallelism),
		brainprint.WithTopK(*k),
	}
	if np > 0 {
		sessionOpts = append(sessionOpts, brainprint.WithANN(np))
	}
	if *replicaOf != "" {
		if *writable {
			return fmt.Errorf("serve: -replica-of and -writable are mutually exclusive (replicas are read-only)")
		}
		rep, err := brainprint.StartReplica(*replicaOf, *db, brainprint.ReplicaOptions{
			CompactAfter: *compactAfter,
			Logf:         func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) },
		})
		if err != nil {
			return err
		}
		defer rep.Close()
		layout := fmt.Sprintf("replica of %s, generation %d", *replicaOf, rep.Stats().Generation)
		return serveEngine(out, *db, rep, layout, false, sessionOpts, serve.Config{
			Addr:           *addr,
			RequestTimeout: *timeout,
			MaxInflight:    *maxInflight,
			DrainTimeout:   *drain,
			Replica:        rep,
		})
	}
	var layout string
	if isLiveDir(*db) {
		e, err := brainprint.OpenLiveGallery(*db, brainprint.LiveGalleryOptions{CompactAfter: *compactAfter})
		if err != nil {
			return err
		}
		defer e.Close()
		st := e.Stats()
		if st.RecoveredTornBytes > 0 {
			fmt.Fprintf(out, "warning: recovered a torn write-ahead log tail (%d bytes truncated)\n", st.RecoveredTornBytes)
		}
		if *writable {
			sessionOpts = append(sessionOpts, brainprint.WithMutableGallery(e))
			layout = fmt.Sprintf("live generation %d, writable", st.Generation)
		} else {
			layout = fmt.Sprintf("live generation %d, read-only", st.Generation)
		}
		return serveEngine(out, *db, e, layout, *writable, sessionOpts, serve.Config{
			Addr:           *addr,
			RequestTimeout: *timeout,
			MaxInflight:    *maxInflight,
			DrainTimeout:   *drain,
			// Any live directory — writable or not — is a replication
			// primary: replicas only need its log, not its write surface.
			Live: e,
		})
	}
	if *writable {
		return fmt.Errorf("serve: -writable requires a live gallery directory (convert with: brainprint gallery live -from %s -db <dir>)", *db)
	}
	g, err := openStore(*db, out)
	if err != nil {
		return err
	}
	layout = "single file"
	if g.Shards() > 1 {
		layout = fmt.Sprintf("%d/%d shards loaded", g.LoadedShards(), g.Shards())
	}
	if np > 0 {
		layout += fmt.Sprintf(", ivf nprobe=%d", np)
	}
	return serveEngine(out, *db, g, layout, false, sessionOpts, serve.Config{
		Addr:           *addr,
		RequestTimeout: *timeout,
		MaxInflight:    *maxInflight,
		DrainTimeout:   *drain,
	})
}

// serveEngine builds the session and service over any gallery engine
// and runs it until SIGINT/SIGTERM.
func serveEngine(out io.Writer, db string, g brainprint.GalleryEngine, layout string, writable bool, opts []brainprint.AttackerOption, cfg serve.Config) error {
	atk, err := brainprint.NewAttacker(g, opts...)
	if err != nil {
		return err
	}
	srv, err := serve.New(atk, cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(out, "serving gallery %s (%d subjects, %d features, %s, %s scan kernel) on http://%s\n",
		db, g.Len(), g.Features(), layout, gallery.ScanKernel(), srv.Addr())
	endpoints := "endpoints: POST /v1/identify, POST /v1/identify/batch, POST /v1/identify/stream, GET /v1/gallery, GET /v1/metrics, GET /healthz"
	if writable {
		endpoints += ", POST /v1/enroll, DELETE /v1/subjects/{id}"
	}
	if cfg.Live != nil {
		endpoints += ", GET /v1/replicate/{state,file,wal}"
	}
	fmt.Fprintln(out, endpoints)
	return srv.ListenAndServe(ctx)
}
