// Command psml-server runs one computation party of the two-party
// framework as a standalone network service — the deployment shape of
// Fig. 1b with TCP in place of the paper's MPI. Start two servers, wire
// them to each other, and point a client (examples/two_servers, or any
// program using mpc.RequestMul's frame protocol) at both:
//
//	psml-server -party 0 -listen :9100 -peer-listen :9200 &
//	psml-server -party 1 -listen :9101 -peer-dial 127.0.0.1:9200 &
//
// Accepted client connections are served concurrently — up to
// -max-sessions at once, multiplexed over the single peer link; further
// accepts are shed. The servers verify each other's party index with a
// handshake. Neither process ever holds more than additive shares of
// the client's data.
//
// Failure behavior: the peer link is supervised — heartbeats detect a
// dead peer within -peer-heartbeat × (-peer-miss-budget + 1), the link
// reconnects with jittered exponential backoff (so start order doesn't
// matter and a peer restart or fabric blip is survived), and in-flight
// exchange frames are replayed after the resync handshake, so client
// sessions see a link loss only as latency. Per-frame deadlines bound
// every protocol step (so a client killed mid-request times out instead
// of wedging the peer link), a failed session never takes the process
// down, and SIGINT/SIGTERM drain into a graceful shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/fleet"
	"parsecureml/internal/hw"
	"parsecureml/internal/mpc"
	"parsecureml/internal/mpc/tripletpool"
	"parsecureml/internal/obs"
)

func main() {
	party := flag.Int("party", 0, "party index: 0 or 1")
	listen := flag.String("listen", ":9100", "address for client connections")
	peerListen := flag.String("peer-listen", "", "listen for the peer server on this address")
	peerDial := flag.String("peer-dial", "", "connect to the peer server at this address")
	maxSessions := flag.Int("max-sessions", mpc.DefaultMaxSessions, "max concurrent client sessions; further accepts are shed (closed immediately and counted on psml_sessions_shed_total)")
	clientTimeout := flag.Duration("client-timeout", 30*time.Second, "per-frame deadline on client connections; also the session idle timeout (0 disables)")
	peerTimeout := flag.Duration("peer-timeout", 10*time.Second, "per-frame deadline on the inter-server link (0 disables)")
	peerHeartbeat := flag.Duration("peer-heartbeat", 500*time.Millisecond, "heartbeat interval on the inter-server link (0 disables heartbeats)")
	peerMissBudget := flag.Int("peer-miss-budget", 3, "missed heartbeat intervals before the peer link is declared dead")
	peerReconnectAttempts := flag.Int("peer-reconnect-attempts", 10, "max connect attempts per peer-link (re)establishment before giving up")
	peerReconnectBackoff := flag.Duration("peer-reconnect-backoff", 100*time.Millisecond, "initial backoff between peer connect attempts (doubles with jitter, capped at 2s)")
	wirePipeline := flag.Bool("wire-pipeline", true, "accepted for compatibility: the banded double pipeline is the only peer exchange (false is an error)")
	wireChunkRows := flag.Int("wire-chunk-rows", 0, "row-band height this server streams its E share in; 0 streams whole matrices (sender-local: the peer need not agree)")
	wireCodec := flag.String("wire-codec", "raw", "wire compression for revealed E/F tensors: auto (FP16+CSR, cost-model picked), raw, fp16 or csr; negotiated with the peer, so an old peer degrades to raw")
	batchWindow := flag.Duration("batch-window", 0, "coalesce same-shape requests arriving within this window into one stacked peer exchange (0 disables unless -planner; both servers must agree)")
	batchMaxRows := flag.Int("batch-max-rows", 0, "cap on a batch's stacked E rows; reaching it dispatches immediately (0 selects the default; requires batching)")
	planner := flag.Bool("planner", false, "drive the batch window and band height from the hw cost models plus measured exchange costs instead of static values (enables batching)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	dealerDial := flag.String("dealer-dial", "", "dial a psml-dealer here and serve dealer-fed (two-matrix) requests from its triplet streams (requires -pair-id; both parties of the pair must configure it)")
	pairID := flag.Uint64("pair-id", 0, "this server pair's identity at the dealer; both parties must agree (requires -dealer-dial)")
	feedDepth := flag.Int("triplet-feed-depth", 8, "per-shape credit headroom kept with the dealer (requires -dealer-dial)")
	dealerReconnectAttempts := flag.Int("dealer-reconnect-attempts", 60, "max connect attempts per dealer-link (re)establishment — sized to outlast a dealer restart (requires -dealer-dial)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on the first SIGINT/SIGTERM: announce DRAIN to the router (if registered), stop accepting clients, and give in-flight sessions this long to finish; a second signal (or the timeout) stops hard")
	routerRegister := flag.String("router-register", "", "register this server pair with the psml-router health listener at this address (run on ONE party per pair; requires the -advertise flags)")
	replicaName := flag.String("replica-name", "", "this pair's stable identity on the router's consistent-hash ring (requires -router-register)")
	advertise0 := flag.String("advertise-party0", "", "party 0's client address as the router should dial it (requires -router-register)")
	advertise1 := flag.String("advertise-party1", "", "party 1's client address as the router should dial it (requires -router-register)")
	flag.Parse()

	if *party != 0 && *party != 1 {
		log.Fatalf("party must be 0 or 1")
	}
	if (*peerListen == "") == (*peerDial == "") {
		log.Fatalf("exactly one of -peer-listen / -peer-dial is required")
	}
	if !*wirePipeline {
		log.Fatalf("-wire-pipeline=false is not supported: the banded double pipeline is the only peer exchange")
	}
	codecSet, err := mpc.ParseWireCodecName(*wireCodec)
	if err != nil {
		log.Fatalf("%v", err)
	}
	if *batchMaxRows != 0 && *batchWindow <= 0 && !*planner {
		log.Fatalf("-batch-max-rows requires -batch-window or -planner")
	}
	if (*dealerDial == "") != (*pairID == 0) {
		log.Fatalf("-dealer-dial and -pair-id go together")
	}
	if *routerRegister != "" && (*replicaName == "" || *advertise0 == "" || *advertise1 == "") {
		log.Fatalf("-router-register requires -replica-name, -advertise-party0 and -advertise-party1")
	}

	// Two-phase shutdown: the first signal drains (DRAIN announced to the
	// router, client listener closed, in-flight sessions finish), the
	// second — or the drain timeout — cancels ctx and stops hard. The
	// drain goroutine is armed below, once the listener and the fleet
	// agent exist.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	logger := obs.NewLogger(os.Stderr, obs.Default)

	var drainMu sync.Mutex
	var drainLn net.Listener            // client listener, once it exists
	var drainAgent *comm.SupervisedLink // fleet health link, if registered
	go func() {
		select {
		case <-sigs:
		case <-ctx.Done():
			return
		}
		drainMu.Lock()
		ln, agent := drainLn, drainAgent
		drainMu.Unlock()
		if ln == nil {
			cancel() // not serving yet: nothing to drain
			return
		}
		log.Printf("party %d: draining (no new sessions; in-flight get %v; signal again to stop hard)", *party, *drainTimeout)
		if agent != nil {
			if err := fleet.SendDrain(agent); err != nil {
				logger.Error("drain_announce", err)
			}
		}
		ln.Close() // ServeClients finishes in-flight sessions and returns
		select {
		case <-sigs:
		case <-time.After(*drainTimeout):
		case <-ctx.Done():
			return
		}
		cancel()
	}()

	// Optional observability listener: Prometheus text metrics, a liveness
	// probe, and pprof. Off by default — it exposes timing side channels.
	if *debugAddr != "" {
		bound, _, err := obs.ServeDebug(ctx, *debugAddr, obs.Default, nil)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		log.Printf("party %d: debug endpoints on http://%s (/metrics, /healthz, /debug/pprof)", *party, bound)
	}

	// Establish the inter-server link first (the paper's server1<->server2
	// InfiniBand edge), under supervision: connect runs again after every
	// connection loss, the hello handshake re-verifies the peer's party on
	// each incarnation, and unacknowledged frames are replayed after the
	// resync. The listening side keeps its listener open for the life of
	// the process so a restarted or disconnected peer can come back.
	supCfg := comm.SupervisorConfig{
		HeartbeatInterval: *peerHeartbeat,
		MissBudget:        *peerMissBudget,
		ReconnectAttempts: *peerReconnectAttempts,
		ReconnectBase:     *peerReconnectBackoff,
	}
	if *peerHeartbeat <= 0 {
		supCfg.HeartbeatInterval = -1 // 0 means "default" in the config; the flag's 0 means off
	}
	var connect func() (*comm.Conn, error)
	if *peerListen != "" {
		ln, err := comm.Listen(*peerListen)
		if err != nil {
			log.Fatalf("peer listen: %v", err)
		}
		// Closing the listener on shutdown unblocks a pending (re)accept.
		context.AfterFunc(ctx, func() { ln.Close() })
		log.Printf("party %d waiting for peer on %s", *party, *peerListen)
		connect = func() (*comm.Conn, error) {
			c, err := comm.Accept(ln)
			if err != nil {
				return nil, err
			}
			c.SetTimeouts(0, *peerTimeout)
			return c, nil
		}
	} else {
		connect = func() (*comm.Conn, error) {
			c, err := comm.Dial(*peerDial)
			if err != nil {
				return nil, err
			}
			c.SetTimeouts(0, *peerTimeout)
			return c, nil
		}
	}
	peer, err := mpc.SupervisePeer(*party, connect, supCfg)
	if err != nil {
		if ctx.Err() != nil {
			log.Printf("party %d: shutdown before peer connected", *party)
			return
		}
		log.Fatalf("peer link: %v", err)
	}
	defer peer.Close()
	log.Printf("party %d linked to peer (party %d)", *party, 1-*party)

	ln, err := comm.Listen(*listen)
	if err != nil {
		log.Fatalf("client listen: %v", err)
	}
	drainMu.Lock()
	drainLn = ln
	drainMu.Unlock()
	cfg := mpc.ServeConfig{
		MaxSessions:   *maxSessions,
		ClientTimeout: *clientTimeout,
		PeerTimeout:   *peerTimeout,
		Log:           logger,
	}

	// Trusted-dealer feed: connect to the precompute tier and serve the
	// two-matrix request form from its triplet streams. The connection
	// runs under a supervised link that owns the dial — it retries at
	// startup (dealer and servers race to come up) and again after every
	// loss, and a restarted dealer resumes each deterministic stream from
	// this replica's RESUME cursors — see tripletpool.DealerClient.
	if *dealerDial != "" {
		addr := *dealerDial
		feed, err := tripletpool.NewDealerClient(func() (*comm.Conn, error) {
			c, err := comm.Dial(addr)
			if err != nil {
				return nil, err
			}
			c.SetTimeouts(0, 10*time.Second)
			return c, nil
		}, *party, *pairID, tripletpool.FeedConfig{
			Depth: *feedDepth,
			Supervisor: comm.SupervisorConfig{
				ReconnectAttempts: *dealerReconnectAttempts,
			},
		})
		if err != nil {
			log.Fatalf("dealer feed: %v", err)
		}
		defer feed.Close()
		cfg.Feed = feed
		log.Printf("party %d: dealer-fed triplets from %s (pair %d)", *party, *dealerDial, *pairID)
	}

	// Fleet registration: announce this pair to the router and keep the
	// health link alive. One party per pair runs this; serving does not
	// depend on it (a router outage only stops NEW fleet traffic).
	if *routerRegister != "" {
		agent, err := fleet.StartAgent(ctx, *routerRegister, fleet.Replica{
			Name: *replicaName,
			Addr: [2]string{*advertise0, *advertise1},
		}, comm.SupervisorConfig{
			HeartbeatInterval: *peerHeartbeat,
			MissBudget:        *peerMissBudget,
			ReconnectAttempts: 30, // outlast a router restart
		}, logger)
		if err != nil {
			log.Fatalf("router register: %v", err)
		}
		defer agent.Close()
		drainMu.Lock()
		drainAgent = agent
		drainMu.Unlock()
		log.Printf("party %d: registered replica %q with router %s", *party, *replicaName, *routerRegister)
	}
	cfg.Wire.ChunkRows = *wireChunkRows
	if codecSet != 0 {
		// Negotiated: stays raw until (unless) the peer advertises its own
		// codec set, so mixed-version server pairs keep working.
		cfg.Wire.Codec = &mpc.WireCodec{Enabled: codecSet, HW: hw.Paper(), Negotiate: true}
		log.Printf("party %d: wire codec %s", *party, *wireCodec)
	}
	if *batchWindow > 0 || *planner {
		cfg.Batch = &mpc.BatchConfig{Window: *batchWindow, MaxRows: *batchMaxRows}
		if *planner {
			cfg.Batch.Planner = mpc.NewPlanner(hw.Paper())
			log.Printf("party %d: cross-session batching enabled (planner-driven window)", *party)
		} else {
			log.Printf("party %d: cross-session batching enabled (window %v)", *party, *batchWindow)
		}
	}
	fmt.Printf("psml-server party %d serving clients on %s\n", *party, *listen)
	err = mpc.ServeClients(ctx, *party, ln, peer, cfg)
	if err != nil {
		log.Fatalf("party %d: serve: %v", *party, err)
	}
	log.Printf("party %d: graceful shutdown", *party)
}
