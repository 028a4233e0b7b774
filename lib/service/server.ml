(* soimapd: the mapping-as-a-service daemon core.

   Composition, not invention: requests ride the shared work-stealing
   {!Parallel.Pool}, per-request limits become {!Resilience.Budget}
   allowances (clamped by server policy so a client can never buy an
   unbounded mapping), all clients share one warm {!Mapper.Memo} table,
   and the ledger/latency surface mirrors into {!Obs.Metrics}.

   Robustness is the architecture:

   - {b Admission control.}  A bounded queue between connection readers
     and the dispatchers; once full, a map request is answered
     [rejected/overloaded] immediately (with a retry hint) instead of
     queueing without bound.  [ping]/[stats] bypass admission so the
     daemon stays observable under overload.
   - {b Bounded I/O.}  Every connection has read/write timeouts and a
     max-request-size: a slow, silent or fire-hosing client costs one
     reader thread for at most one timeout, never a worker.
   - {b Request isolation.}  A job that trips its budget or raises
     returns a [failed] response to its own client; the worker, the
     batch it rode in, and every other request proceed.  No exception
     crosses a job boundary (a raising pool task would cancel its
     batch siblings).
   - {b Graceful drain.}  SIGTERM/SIGINT (via {!request_stop}) stops
     accepting, lets in-flight and queued work finish until the drain
     deadline (queued jobs past it are failed, never dropped silently),
     flushes the cache and metrics, and {!run} returns [Ok ()] — exit 0.

   Ledger invariant: [requests = ok + degraded + failed + rejected],
   exactly, at every instant — a response's outcome counter and the
   request counter are bumped together under the server mutex.  Frames
   that never became an admitted request (malformed, oversized, invalid
   limits) are counted in [errors] instead.  The chaos drill
   ({!Check.Chaos.daemon_storm}) storms a live daemon and asserts this
   balance through the [stats] op. *)

type config = {
  addr : Protocol.addr;
  max_connections : int;
  queue_depth : int;
  dispatchers : int;
  batch_max : int;
  max_request_bytes : int;
  io_timeout : float;
  drain_timeout : float;
  default_timeout : float;
  max_timeout : float;
  max_tuples_cap : int option;
  max_bdd_nodes_cap : int option;
  max_delay_ms : int;
  cache_file : string option;
  cache_interval : float;
  stats_addr : Protocol.addr option;
  flight_file : string option;
}

let default_config ~addr =
  {
    addr;
    max_connections = 64;
    queue_depth = 64;
    dispatchers = 2;
    batch_max = 8;
    max_request_bytes = 1 lsl 20;
    io_timeout = 10.0;
    drain_timeout = 10.0;
    default_timeout = 30.0;
    max_timeout = 60.0;
    max_tuples_cap = None;
    max_bdd_nodes_cap = None;
    max_delay_ms = 1000;
    cache_file = None;
    cache_interval = 60.0;
    stats_addr = None;
    flight_file = None;
  }

(* ---------------- metrics mirrors ---------------- *)

(* Traffic-shaped, so all unstable.  The internal totals below are the
   authoritative ledger (always on, mutex-consistent); these mirrors
   exist so `soimap --serve --stats` exposes the same numbers through
   the standard observability surface. *)
let m_requests = Obs.Metrics.counter ~stable:false "service.requests"
let m_ok = Obs.Metrics.counter ~stable:false "service.ok"
let m_degraded = Obs.Metrics.counter ~stable:false "service.degraded"
let m_failed = Obs.Metrics.counter ~stable:false "service.failed"
let m_rejected = Obs.Metrics.counter ~stable:false "service.rejected"
let m_errors = Obs.Metrics.counter ~stable:false "service.errors"
let m_disconnects = Obs.Metrics.counter ~stable:false "service.disconnects"
let m_connections = Obs.Metrics.counter ~stable:false "service.connections"
let m_conn_rejected = Obs.Metrics.counter ~stable:false "service.conn_rejected"
let m_queue_peak = Obs.Metrics.gauge_max ~stable:false "service.queue_peak"
let m_bytes_in = Obs.Metrics.counter ~stable:false "service.bytes_in"
let m_bytes_out = Obs.Metrics.counter ~stable:false "service.bytes_out"

(* Per-outcome latency histograms, log-bucketed in nanoseconds (1 µs to
   10 s on the 1-2-5 grid): an operator asking "what does a degraded
   request cost?" reads one family instead of subtracting mixtures.
   Quantiles come out via [Metrics.quantile] on the exposed buckets. *)
let latency_buckets = Obs.Metrics.log_buckets ~lo:1_000 ~hi:10_000_000_000

let m_latency_of_class cls =
  Obs.Metrics.histogram ~stable:false ~buckets:latency_buckets
    ("service.latency_ns." ^ cls)

let m_latency_ok = m_latency_of_class "ok"
let m_latency_degraded = m_latency_of_class "degraded"
let m_latency_failed = m_latency_of_class "failed"
let m_latency_rejected = m_latency_of_class "rejected"

(* Per-request GC attribution: [Gcstats.snap]/[delta] on the executing
   domain, accumulated here — the daemon's answer to "which traffic is
   allocating?". *)
let m_gc_minor = Obs.Metrics.counter ~stable:false "service.gc.minor_words"
let m_gc_promoted = Obs.Metrics.counter ~stable:false "service.gc.promoted_words"
let m_gc_major = Obs.Metrics.counter ~stable:false "service.gc.major_words"
let m_gc_minor_coll =
  Obs.Metrics.counter ~stable:false "service.gc.minor_collections"
let m_gc_major_coll =
  Obs.Metrics.counter ~stable:false "service.gc.major_collections"

(* Remap baseline cache traffic: a build parses, prepares and maps a
   base; a hit reuses a cached one. *)
let m_baseline_builds =
  Obs.Metrics.counter ~stable:false "service.remap.baseline_builds"
let m_baseline_hits =
  Obs.Metrics.counter ~stable:false "service.remap.baseline_hits"

(* ---------------- connections ---------------- *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  wmutex : Mutex.t;  (* serialises response lines on this socket *)
  mutable pending : int;  (* queued/in-flight jobs that will write here *)
  mutable closing : bool;  (* reader done; close once pending drains *)
  mutable dead : bool;  (* a write failed; don't try again *)
  mutable closed : bool;
}

type job = {
  req_id : string;
  trace_id : string option;
  params : Protocol.map_params;
  base : string option;  (* remap op: the pre-edit circuit text *)
  jconn : conn;
  t_enq : int64;
}

(* One built remap base, keyed by everything that determines it: the
   base text, format, flow, cost model and bounds.  The key holds the
   text itself: comparing it is a memcmp, while a structural key (a
   fingerprint) would cost the parse and prepare that the cache exists
   to skip. *)
type baseline = {
  key :
    string
    * Protocol.format
    * Mapper.Algorithms.flow
    * Mapper.Cost.model
    * int
    * int;
  base : Mapper.Algorithms.base;
}

(* Enough for a few designers on distinct bases; each entry costs its
   base's mapped circuit plus one edit's memo working set. *)
let baseline_capacity = 4

type t = {
  cfg : config;
  memo : Mapper.Memo.t;
  stop : bool Atomic.t;
  listening : bool Atomic.t;
  m : Mutex.t;
  jobs_cond : Condition.t;
  queue : job Queue.t;
  mutable stopping : bool;  (* mutex-held mirror of [stop], wakes waiters *)
  mutable drain_deadline : int64;
  mutable conns : conn list;
  mutable next_cid : int;
  (* the ledger (guarded by [m]) *)
  mutable c_requests : int;
  mutable c_ok : int;
  mutable c_degraded : int;
  mutable c_failed : int;
  mutable c_rejected : int;
  mutable c_errors : int;
  mutable c_disconnects : int;
  mutable c_connections : int;
  mutable c_conn_rejected : int;
  mutable c_queue_peak : int;
  mutable c_latency_max_ms : int;
  mutable c_inflight : int;  (* jobs currently executing on the pool *)
  next_trace : int Atomic.t;  (* server-assigned trace-id counter *)
  flight_dumped : bool Atomic.t;  (* first-failure auto-dump latch *)
  flight_wanted : bool Atomic.t;  (* SIGQUIT-style on-demand dump *)
  (* Warm remap baselines, most recently used first, at most
     [baseline_capacity] (guarded by [remap_lock]).  Remap states are
     mutable, so every remap serialises on the lock; map requests are
     unaffected. *)
  remap_lock : Mutex.t;
  mutable baselines : baseline list;
}

let create ?memo cfg =
  {
    cfg;
    memo = (match memo with Some m -> m | None -> Mapper.Memo.create ());
    stop = Atomic.make false;
    listening = Atomic.make false;
    m = Mutex.create ();
    jobs_cond = Condition.create ();
    queue = Queue.create ();
    stopping = false;
    drain_deadline = 0L;
    conns = [];
    next_cid = 0;
    c_requests = 0;
    c_ok = 0;
    c_degraded = 0;
    c_failed = 0;
    c_rejected = 0;
    c_errors = 0;
    c_disconnects = 0;
    c_connections = 0;
    c_conn_rejected = 0;
    c_queue_peak = 0;
    c_latency_max_ms = 0;
    c_inflight = 0;
    next_trace = Atomic.make 0;
    flight_dumped = Atomic.make false;
    flight_wanted = Atomic.make false;
    remap_lock = Mutex.create ();
    baselines = [];
  }

let memo t = t.memo
let request_stop t = Atomic.set t.stop true
let listening t = Atomic.get t.listening

let request_flight_dump t = Atomic.set t.flight_wanted true

(* The daemon's trace ids: a client that sent none still gets a
   correlation token it can quote back to the operator.  Only minted
   while tracing, so the tracing-off hot path never allocates one. *)
let assign_trace_id t req_trace_id =
  match req_trace_id with
  | Some _ as tid -> tid
  | None ->
      if Obs.Trace.enabled () then
        Some (Printf.sprintf "s-%d" (Atomic.fetch_and_add t.next_trace 1))
      else None

let flight_dump_now t ~why =
  match t.cfg.flight_file with
  | None -> ()
  | Some file -> (
      Obs.Flight.record ~detail:why "dump";
      match Obs.Flight.write_file file with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "soimapd: flight dump %s: %s\n%!" file msg)

(* The first failed request triggers one automatic dump: the ring then
   still holds the events leading up to it, which is exactly the window
   an operator wants on file before it scrolls away. *)
let flight_on_failure t =
  if
    t.cfg.flight_file <> None
    && not (Atomic.exchange t.flight_dumped true)
  then flight_dump_now t ~why:"first-failure"

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let totals t =
  locked t (fun () ->
      [
        ("requests", t.c_requests);
        ("ok", t.c_ok);
        ("degraded", t.c_degraded);
        ("failed", t.c_failed);
        ("rejected", t.c_rejected);
        ("errors", t.c_errors);
        ("disconnects", t.c_disconnects);
        ("connections", t.c_connections);
        ("conn_rejected", t.c_conn_rejected);
        ("queue_depth", Queue.length t.queue);
        ("queue_peak", t.c_queue_peak);
        ("latency_max_ms", t.c_latency_max_ms);
        ("inflight", t.c_inflight);
      ])

(* Live point-in-time gauges for the stats op and the OpenMetrics
   listener: these are *current* values, not aggregates, so they live
   in the ledger rather than the (max/sum-shaped) metrics registry. *)
let live_gauges t =
  locked t (fun () ->
      [
        ("service_queue_depth", Queue.length t.queue);
        ("service_inflight", t.c_inflight);
        ("service_connections_open", List.length t.conns);
      ])

(* ---------------- socket helpers ---------------- *)

(* Writes go through one code path: serialised per connection, bounded
   by SO_SNDTIMEO, and a failure (EPIPE from a mid-request disconnect,
   a timeout against a stuffed socket) marks the connection dead and is
   counted — it never raises into a pool task or reader. *)
let write_line t conn line =
  Mutex.lock conn.wmutex;
  let newly_dead = ref false in
  let ok =
    if conn.dead || conn.closed then false
    else begin
      let data = line ^ "\n" in
      let len = String.length data in
      match
        let off = ref 0 in
        while !off < len do
          off :=
            !off + Unix.write_substring conn.fd data !off (len - !off)
        done
      with
      | () ->
          Obs.Metrics.add m_bytes_out len;
          true
      | exception Unix.Unix_error _ ->
          conn.dead <- true;
          newly_dead := true;
          false
    end
  in
  Mutex.unlock conn.wmutex;
  if !newly_dead then begin
    locked t (fun () -> t.c_disconnects <- t.c_disconnects + 1);
    Obs.Metrics.incr m_disconnects
  end;
  ok

let close_fd fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Close the socket once nothing will write to it anymore.  Readers call
   this with [conn.closing] set; jobs call it as they release their
   reference. *)
let conn_maybe_close conn =
  Mutex.lock conn.wmutex;
  let do_close = conn.closing && conn.pending = 0 && not conn.closed in
  if do_close then conn.closed <- true;
  Mutex.unlock conn.wmutex;
  if do_close then close_fd conn.fd

let conn_release conn =
  Mutex.lock conn.wmutex;
  conn.pending <- conn.pending - 1;
  Mutex.unlock conn.wmutex;
  conn_maybe_close conn

(* ---------------- request execution ---------------- *)

exception Payload_error of string

let load_payload (fmt : Protocol.format) text =
  match Protocol.load fmt text with
  | Ok net -> net
  | Error (Protocol.Malformed (line, msg)) ->
      let kind =
        match fmt with
        | Protocol.Blif -> "blif"
        | Protocol.Bench_fmt -> "bench"
        | Protocol.Pla -> "pla"
        | Protocol.Suite -> "suite"
      in
      raise (Payload_error (Printf.sprintf "%s:%d: %s" kind line msg))
  | Error (Protocol.Unknown_benchmark name) ->
      raise (Payload_error ("unknown suite benchmark: " ^ name))

(* Client-supplied limits clamped by server policy: the effective
   timeout is always finite (policy default when the client sent none,
   policy max otherwise), so no request can hold a worker forever; the
   tuple/BDD caps take the tighter of client wish and policy cap. *)
let effective_budget cfg (p : Protocol.map_params) =
  let timeout =
    Float.min (Option.value p.timeout ~default:cfg.default_timeout)
      cfg.max_timeout
  in
  let tighter client cap =
    match (client, cap) with
    | Some a, Some b -> Some (min a b)
    | Some a, None -> Some a
    | None, c -> c
  in
  Resilience.Budget.make ~timeout
    ?max_tuples:(tighter p.max_tuples cfg.max_tuples_cap)
    ?max_bdd_nodes:(tighter p.max_bdd_nodes cfg.max_bdd_nodes_cap)
    ()

(* Remap the prepared edit [u] against the baseline for [base] under
   [p]'s format, flow, cost and bounds.  A cached baseline moves to the
   front of the MRU list.  A missing one is built by this remap and
   cached unless its build tripped the budget, evicting the least
   recently used entry beyond [baseline_capacity].  Call with
   [remap_lock] held. *)
let remap_against t (p : Protocol.map_params) ~budget base u =
  let key =
    ( base,
      p.Protocol.format,
      p.Protocol.flow,
      p.Protocol.cost,
      p.Protocol.w_max,
      p.Protocol.h_max )
  in
  let remap b =
    Mapper.Algorithms.remap ~budget ~on_exhaust:p.Protocol.on_exhaust b u
  in
  match List.find_opt (fun b -> b.key = key) t.baselines with
  | Some b ->
      Obs.Metrics.incr m_baseline_hits;
      t.baselines <- b :: List.filter (fun b' -> b' != b) t.baselines;
      remap b.base
  | None ->
      let b =
        Mapper.Algorithms.base ~memo:t.memo ~cost:p.Protocol.cost
          ~w_max:p.Protocol.w_max ~h_max:p.Protocol.h_max p.Protocol.flow
          (Mapper.Algorithms.prepare (load_payload p.Protocol.format base))
      in
      let outcome = remap b in
      if Mapper.Algorithms.built b then begin
        Obs.Metrics.incr m_baseline_builds;
        t.baselines <-
          List.filteri
            (fun i _ -> i < baseline_capacity)
            ({ key; base = b } :: t.baselines)
      end;
      outcome

type job_outcome = Ok_ | Degraded_ | Failed_

(* One admitted request, start to finish, on a pool domain.  Total: any
   escape (payload parse error, a raising mapper bug, a chaos site)
   becomes a [failed] response — an exception here would cancel the
   sibling requests sharing the batch.

   Observability happens here too: the GC snapshot pair brackets the
   mapping on the executing domain (so [service.gc.*] attributes
   allocation to requests, not to the process), and when tracing is on
   the request's whole span tree — admission-to-respond parent with
   queue/map/respond children — is synthesized from the timestamps and
   emitted on this domain's track, tagged with the trace id. *)
let run_job t job =
  let cfg = t.cfg in
  let p = job.params in
  let tid = job.trace_id in
  let t_start = Obs.Clock.now_ns () in
  locked t (fun () -> t.c_inflight <- t.c_inflight + 1);
  let gc0 = Obs.Gcstats.snap () in
  let elapsed () = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) job.t_enq) in
  let mapped status r degradations =
    Protocol.render_mapped ?trace_id:tid
      ?remap:
        (Option.map
           (fun (i : Mapper.Engine.remap_info) ->
             {
               Protocol.rs_nodes =
                 Unate.Unetwork.node_count r.Mapper.Algorithms.unate;
               rs_dirty = i.Mapper.Engine.dirty_cones;
               rs_clean = i.Mapper.Engine.clean_cones;
             })
           r.Mapper.Algorithms.remap)
      ~id:job.req_id ~status ~counts:r.Mapper.Algorithms.counts ~degradations
      ~elapsed_ms:(elapsed ())
      ~dump:
        (if p.Protocol.dump then
           Some (Domino.Circuit.dump r.Mapper.Algorithms.circuit)
         else None)
      ()
  in
  let outcome, detail, line =
    match
      (if p.Protocol.delay_ms > 0 then
         Unix.sleepf
           (float_of_int (min p.Protocol.delay_ms cfg.max_delay_ms) /. 1000.));
      let net = load_payload p.Protocol.format p.Protocol.payload in
      let budget = effective_budget cfg p in
      let u = Mapper.Algorithms.prepare net in
      match job.base with
      | None ->
          Mapper.Algorithms.map_outcome ~budget ~memo:t.memo
            ~on_exhaust:p.Protocol.on_exhaust ~cost:p.Protocol.cost
            ~w_max:p.Protocol.w_max ~h_max:p.Protocol.h_max
            ~rewrite:p.Protocol.rewrite p.Protocol.flow u
      | Some base ->
          (* Incremental remap: fingerprint the payload against a warm
             baseline, re-pricing only the dirty cones.  The steady
             state — many remaps of edited payloads against a few bases
             — never re-maps a base; a cache miss maps it through the
             shared warm memo.  A budget trip follows [on_exhaust] as a
             map's does. *)
          Mutex.lock t.remap_lock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock t.remap_lock)
            (fun () -> remap_against t p ~budget base u)
    with
    | Resilience.Outcome.Ok r -> (Ok_, "", mapped "ok" r [])
    | Resilience.Outcome.Degraded (r, ds) ->
        let ds = List.map Resilience.Outcome.describe_degradation ds in
        (Degraded_, String.concat "; " ds, mapped "degraded" r ds)
    | Resilience.Outcome.Failed reason ->
        let msg = Resilience.Budget.reason_to_string reason in
        ( Failed_,
          msg,
          Protocol.render_failed ?trace_id:tid ~id:job.req_id
            ~elapsed_ms:(elapsed ()) msg )
    | exception Payload_error msg ->
        ( Failed_,
          "parse: " ^ msg,
          Protocol.render_failed ?trace_id:tid ~id:job.req_id
            ~elapsed_ms:(elapsed ()) ("parse: " ^ msg) )
    | exception e ->
        let msg = "internal: " ^ Printexc.to_string e in
        ( Failed_,
          msg,
          Protocol.render_failed ?trace_id:tid ~id:job.req_id
            ~elapsed_ms:(elapsed ()) msg )
  in
  let gc = Obs.Gcstats.delta gc0 in
  Obs.Metrics.add m_gc_minor gc.Obs.Gcstats.minor_words;
  Obs.Metrics.add m_gc_promoted gc.Obs.Gcstats.promoted_words;
  Obs.Metrics.add m_gc_major gc.Obs.Gcstats.major_words;
  Obs.Metrics.add m_gc_minor_coll gc.Obs.Gcstats.minor_collections;
  Obs.Metrics.add m_gc_major_coll gc.Obs.Gcstats.major_collections;
  let t_done = Obs.Clock.now_ns () in
  (* Ledger before writing, [inflight] included: once a client holds a
     response, the ledger already reflects it, so an immediately
     following `stats` (or the storm drill's over-the-wire balance
     check) can never observe the gap between a delivered outcome and
     its counters. *)
  let ms = int_of_float (elapsed ()) in
  locked t (fun () ->
      t.c_requests <- t.c_requests + 1;
      t.c_inflight <- t.c_inflight - 1;
      (match outcome with
      | Ok_ -> t.c_ok <- t.c_ok + 1
      | Degraded_ -> t.c_degraded <- t.c_degraded + 1
      | Failed_ -> t.c_failed <- t.c_failed + 1);
      if ms > t.c_latency_max_ms then t.c_latency_max_ms <- ms);
  Obs.Metrics.incr m_requests;
  (match outcome with
  | Ok_ -> Obs.Metrics.incr m_ok
  | Degraded_ ->
      Obs.Metrics.incr m_degraded;
      Obs.Flight.record ?id:tid ~detail "degrade"
  | Failed_ ->
      Obs.Metrics.incr m_failed;
      Obs.Flight.record ?id:tid ~detail "fail";
      (* Dump before replying, like the ledger above: a client holding
         its failed reply can count on the first-failure dump. *)
      flight_on_failure t);
  ignore (write_line t job.jconn line);
  let t_wend = Obs.Clock.now_ns () in
  let lat_ns = Int64.to_int (Int64.max 0L (Int64.sub t_wend job.t_enq)) in
  Obs.Metrics.observe
    (match outcome with
    | Ok_ -> m_latency_ok
    | Degraded_ -> m_latency_degraded
    | Failed_ -> m_latency_failed)
    lat_ns;
  if Obs.Trace.enabled () then begin
    let args =
      ("id", job.req_id)
      :: (match tid with None -> [] | Some x -> [ ("trace_id", x) ])
    in
    let status =
      match outcome with
      | Ok_ -> "ok"
      | Degraded_ -> "degraded"
      | Failed_ -> "failed"
    in
    let sub a b = Int64.max 0L (Int64.sub a b) in
    Obs.Trace.span_at ~cat:"service"
      ~args:(("status", status) :: args)
      ~ts:job.t_enq ~dur:(sub t_wend job.t_enq) "service.request";
    Obs.Trace.span_at ~cat:"service" ~args ~ts:job.t_enq
      ~dur:(sub t_start job.t_enq) "service.queue";
    Obs.Trace.span_at ~cat:"service" ~args ~ts:t_start
      ~dur:(sub t_done t_start) "service.map";
    Obs.Trace.span_at ~cat:"service" ~args ~ts:t_done
      ~dur:(sub t_wend t_done) "service.respond"
  end;
  conn_release job.jconn

(* Fail a job without mapping it (drain deadline passed). *)
let fail_job t job reason =
  let elapsed = Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) job.t_enq) in
  locked t (fun () ->
      t.c_requests <- t.c_requests + 1;
      t.c_failed <- t.c_failed + 1);
  Obs.Metrics.incr m_requests;
  Obs.Metrics.incr m_failed;
  Obs.Flight.record ?id:job.trace_id ~detail:reason "drain_fail";
  ignore
    (write_line t job.jconn
       (Protocol.render_failed ?trace_id:job.trace_id ~id:job.req_id
          ~elapsed_ms:elapsed reason));
  Obs.Metrics.observe m_latency_failed
    (Int64.to_int
       (Int64.max 0L (Int64.sub (Obs.Clock.now_ns ()) job.t_enq)));
  conn_release job.jconn

(* ---------------- dispatchers ---------------- *)

(* A dispatcher collects whatever is queued (up to [batch_max]) and maps
   the batch on the shared pool: concurrent requests become one
   fork-join batch, several dispatchers keep batches overlapping.  The
   pool's first-failure cancellation is irrelevant here because
   [run_job] never raises. *)
let dispatcher_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.jobs_cond t.m
    done;
    let past_drain =
      t.stopping && t.drain_deadline <> 0L
      && Int64.compare (Obs.Clock.now_ns ()) t.drain_deadline > 0
    in
    let batch = ref [] in
    let n = ref 0 in
    while (not (Queue.is_empty t.queue)) && !n < t.cfg.batch_max do
      batch := Queue.pop t.queue :: !batch;
      incr n
    done;
    let finished = Queue.is_empty t.queue && t.stopping in
    Mutex.unlock t.m;
    let batch = Array.of_list (List.rev !batch) in
    if past_drain then
      Array.iter (fun j -> fail_job t j "draining: server shutting down") batch
    else if Array.length batch > 0 then
      ignore (Parallel.Pool.map_default (fun j -> run_job t j) batch);
    if not (finished && Array.length batch = 0) then
      if finished then (
        (* drained this batch; check whether more arrived *)
        Mutex.lock t.m;
        let really_done = Queue.is_empty t.queue && t.stopping in
        Mutex.unlock t.m;
        if not really_done then loop ())
      else loop ()
  in
  loop ()

(* ---------------- connection readers ---------------- *)

type read_event = Line of string | Eof | Timeout | Oversized

(* Bytes asked of the kernel per [read]: a ~300 KB remap frame arrives
   in a handful of reads, each one a trip through the runtime lock. *)
let read_chunk = 65536

(* A connection's read buffer: bytes [lo, hi) are received but not
   yet returned as a line, and [lo, scanned) hold no newline. *)
type rbuf = {
  mutable data : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable scanned : int;
}

let rbuf_create () =
  { data = Bytes.create read_chunk; lo = 0; hi = 0; scanned = 0 }

let rbuf_pending rb = rb.hi - rb.lo

(* Line reader bounded in space ([max_request_bytes] per line, however
   the bytes are chunked) and time (SO_RCVTIMEO set at accept).  Each
   received byte is scanned for the newline once; a line is copied out
   once. *)
let read_next t conn rb =
  let max = t.cfg.max_request_bytes in
  let rec newline i =
    if i >= rb.hi then None
    else if Bytes.unsafe_get rb.data i = '\n' then Some i
    else newline (i + 1)
  in
  let rec go () =
    match newline rb.scanned with
    | Some i ->
        let lo = rb.lo in
        rb.lo <- i + 1;
        rb.scanned <- i + 1;
        if i - lo > max then Oversized
        else Line (Bytes.sub_string rb.data lo (i - lo))
    | None ->
        rb.scanned <- rb.hi;
        if rbuf_pending rb > max then Oversized
        else begin
          (* Room for a full chunk: slide the pending line to the front,
             and grow only when the line itself needs it. *)
          if Bytes.length rb.data - rb.hi < read_chunk then begin
            let n = rbuf_pending rb in
            let data =
              if n + read_chunk <= Bytes.length rb.data then rb.data
              else
                Bytes.create
                  (Int.max (n + read_chunk) (2 * Bytes.length rb.data))
            in
            Bytes.blit rb.data rb.lo data 0 n;
            rb.data <- data;
            rb.lo <- 0;
            rb.hi <- n;
            rb.scanned <- n
          end;
          match Unix.read conn.fd rb.data rb.hi read_chunk with
          | 0 -> Eof
          | n ->
              Obs.Metrics.add m_bytes_in n;
              rb.hi <- rb.hi + n;
              go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              Timeout
          | exception Unix.Unix_error _ -> Eof
        end
  in
  go ()

let count_error t =
  locked t (fun () -> t.c_errors <- t.c_errors + 1);
  Obs.Metrics.incr m_errors

let count_disconnect t =
  locked t (fun () -> t.c_disconnects <- t.c_disconnects + 1);
  Obs.Metrics.incr m_disconnects

(* Admission decision for a parsed map request: bounded queue, explicit
   rejection once full (or once the server is draining). *)
let admit t conn ~trace_id ~t_recv ?base req_id params =
  Mutex.lock t.m;
  let depth = Queue.length t.queue in
  let decision =
    if t.stopping then `Reject ("draining", depth)
    else if depth >= t.cfg.queue_depth then `Reject ("overloaded", depth)
    else begin
      Mutex.lock conn.wmutex;
      conn.pending <- conn.pending + 1;
      Mutex.unlock conn.wmutex;
      Queue.push
        { req_id; trace_id; params; base; jconn = conn; t_enq = t_recv }
        t.queue;
      let d = Queue.length t.queue in
      if d > t.c_queue_peak then t.c_queue_peak <- d;
      Condition.signal t.jobs_cond;
      `Admitted d
    end
  in
  (match decision with
  | `Reject _ ->
      t.c_requests <- t.c_requests + 1;
      t.c_rejected <- t.c_rejected + 1
  | `Admitted _ -> ());
  Mutex.unlock t.m;
  match decision with
  | `Admitted d -> Obs.Metrics.observe_max m_queue_peak d
  | `Reject (reason, depth) ->
      Obs.Metrics.incr m_requests;
      Obs.Metrics.incr m_rejected;
      Obs.Flight.record ?id:trace_id ~detail:reason ~v:depth "reject";
      ignore
        (write_line t conn
           (Protocol.render_rejected ?trace_id ~id:req_id ~reason
              ~queue_depth:depth ~retry_after_ms:50 ()));
      let t_wend = Obs.Clock.now_ns () in
      Obs.Metrics.observe m_latency_rejected
        (Int64.to_int (Int64.max 0L (Int64.sub t_wend t_recv)));
      if Obs.Trace.enabled () then
        Obs.Trace.span_at ~cat:"service"
          ~args:
            (("id", req_id) :: ("status", "rejected")
            :: (match trace_id with None -> [] | Some x -> [ ("trace_id", x) ]))
          ~ts:t_recv
          ~dur:(Int64.max 0L (Int64.sub t_wend t_recv))
          "service.request"

let handle_line t conn line =
  let t_recv = Obs.Clock.now_ns () in
  match Protocol.parse_request line with
  | Error msg ->
      count_error t;
      Obs.Flight.record ~detail:msg "frame_error";
      (* Salvage the correlation tokens from an invalid-but-JSON frame
         (unknown op, bad limits): the error response still echoes
         id/trace_id, so the client can match it to what it sent. *)
      let id, trace_id =
        match Obs.Json.parse line with
        | Ok doc ->
            let s k = Option.bind (Obs.Json.member k doc) Obs.Json.to_string in
            ((match s "id" with Some i -> i | None -> ""), s "trace_id")
        | Error _ -> ("", None)
      in
      ignore (write_line t conn (Protocol.render_error ?trace_id ~id msg))
  | Ok { Protocol.id; trace_id; body = Protocol.Ping } ->
      let trace_id = assign_trace_id t trace_id in
      ignore (write_line t conn (Protocol.render_pong ?trace_id ~id ()))
  | Ok { Protocol.id; trace_id; body = Protocol.Stats } ->
      let trace_id = assign_trace_id t trace_id in
      let gauges = live_gauges t in
      ignore
        (write_line t conn
           (Protocol.render_stats ?trace_id
              ~metrics:(Obs.Metrics.families ())
              ~gauges ~id (totals t)))
  | Ok { Protocol.id; trace_id; body = Protocol.Expose } ->
      let trace_id = assign_trace_id t trace_id in
      let body = Obs.Expose.render ~extra_gauges:(live_gauges t) () in
      ignore (write_line t conn (Protocol.render_expose ?trace_id ~id body))
  | Ok { Protocol.id; trace_id; body = Protocol.Map p } ->
      let trace_id = assign_trace_id t trace_id in
      admit t conn ~trace_id ~t_recv id p
  | Ok { Protocol.id; trace_id; body = Protocol.Remap { base; params } } ->
      let trace_id = assign_trace_id t trace_id in
      admit t conn ~trace_id ~t_recv ~base id params

let reader_loop t conn =
  let rb = rbuf_create () in
  let rec loop () =
    if Atomic.get t.stop && rbuf_pending rb = 0 then ()
    else
      match read_next t conn rb with
      | Line l ->
          if String.trim l <> "" then handle_line t conn l;
          loop ()
      | Eof -> if rbuf_pending rb > 0 then count_disconnect t
      | Timeout ->
          (* Idle or stalled past SO_RCVTIMEO: a stalled mid-frame client
             is a disconnect-class event; an idle one just gets closed. *)
          if rbuf_pending rb > 0 then count_disconnect t
      | Oversized ->
          count_error t;
          Obs.Flight.record ~v:t.cfg.max_request_bytes "frame_oversized";
          ignore
            (write_line t conn
               (Protocol.render_error ~id:""
                  (Printf.sprintf "request exceeds %d bytes"
                     t.cfg.max_request_bytes)))
  in
  loop ();
  Mutex.lock conn.wmutex;
  conn.closing <- true;
  Mutex.unlock conn.wmutex;
  conn_maybe_close conn;
  locked t (fun () ->
      t.conns <- List.filter (fun c -> c.cid <> conn.cid) t.conns)

(* ---------------- cache janitor ---------------- *)

let save_cache t =
  match t.cfg.cache_file with
  | None -> ()
  | Some file -> (
      match Mapper.Memo.save t.memo file with
      | Resilience.Outcome.Ok _ -> ()
      | Resilience.Outcome.Degraded (_, ds) ->
          List.iter
            (fun d ->
              Printf.eprintf "soimapd: cache %s: %s; not saved\n%!" file
                (Resilience.Budget.reason_to_string d.Resilience.Outcome.reason))
            ds
      | Resilience.Outcome.Failed reason ->
          Printf.eprintf "soimapd: cache %s: %s; not saved\n%!" file
            (Resilience.Budget.reason_to_string reason))

let janitor_loop t =
  let rec loop since =
    if Atomic.get t.stop then ()
    else begin
      Unix.sleepf 0.2;
      let since = since +. 0.2 in
      if since >= t.cfg.cache_interval then begin
        save_cache t;
        loop 0.0
      end
      else loop since
    end
  in
  loop 0.0

(* ---------------- listener ---------------- *)

let bind_listener addr =
  match addr with
  | Protocol.Tcp (host, port) -> (
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ ->
          Unix.inet_addr_of_string "127.0.0.1"
      in
      let sa = Unix.ADDR_INET (inet, port) in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      match
        Unix.bind fd sa;
        Unix.listen fd 128
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          Error
            (Printf.sprintf "cannot listen on %s: %s"
               (Protocol.addr_to_string addr)
               (Unix.error_message e)))
  | Protocol.Unix_sock path -> (
      let sa = Unix.ADDR_UNIX path in
      let try_bind () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match
          Unix.bind fd sa;
          Unix.listen fd 128
        with
        | () -> Ok fd
        | exception Unix.Unix_error (e, _, _) ->
            Unix.close fd;
            Error e
      in
      match try_bind () with
      | Ok fd -> Ok fd
      | Error Unix.EADDRINUSE -> (
          (* A leftover socket file from a crashed daemon, or a live
             twin?  Probe it: connection refused means stale. *)
          let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          let stale =
            match Unix.connect probe sa with
            | () -> false
            | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true
            | exception Unix.Unix_error _ -> true
          in
          Unix.close probe;
          if not stale then
            Error ("another daemon is live on " ^ path)
          else begin
            (try Unix.unlink path with Unix.Unix_error _ -> ());
            match try_bind () with
            | Ok fd -> Ok fd
            | Error e ->
                Error
                  (Printf.sprintf "cannot listen on %s: %s" path
                     (Unix.error_message e))
          end)
      | Error e ->
          Error
            (Printf.sprintf "cannot listen on %s: %s" path
               (Unix.error_message e)))

let accept_conn t lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      None
  | exception Unix.Unix_error _ -> None
  | fd, _peer ->
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.io_timeout
       with Unix.Unix_error _ -> ());
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.io_timeout
       with Unix.Unix_error _ -> ());
      let n = locked t (fun () -> List.length t.conns) in
      if n >= t.cfg.max_connections then begin
        locked t (fun () ->
            t.c_conn_rejected <- t.c_conn_rejected + 1);
        Obs.Metrics.incr m_conn_rejected;
        Obs.Flight.record ~detail:"too-many-connections" ~v:n "reject";
        let line =
          Protocol.render_rejected ~id:"" ~reason:"too-many-connections"
            ~queue_depth:0 ~retry_after_ms:200 ()
          ^ "\n"
        in
        (try ignore (Unix.write_substring fd line 0 (String.length line))
         with Unix.Unix_error _ -> ());
        close_fd fd;
        None
      end
      else begin
        let conn =
          locked t (fun () ->
              let cid = t.next_cid in
              t.next_cid <- cid + 1;
              t.c_connections <- t.c_connections + 1;
              let c =
                {
                  fd;
                  cid;
                  wmutex = Mutex.create ();
                  pending = 0;
                  closing = false;
                  dead = false;
                  closed = false;
                }
              in
              t.conns <- c :: t.conns;
              c)
        in
        Obs.Metrics.incr m_connections;
        Some conn
      end

(* ---------------- OpenMetrics side listener ---------------- *)

(* A deliberately tiny HTTP/1.0 responder on a separate address: every
   connection gets one OpenMetrics scrape and is closed.  Prometheus,
   curl and [soimap scrape] all speak this much HTTP; keeping it off
   the service socket means a scraping outage and a mapping outage
   cannot cause each other. *)
let stats_listener_loop t lfd =
  while not (Atomic.get t.stop) do
    match Unix.select [ lfd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept lfd with
        | exception Unix.Unix_error _ -> ()
        | fd, _peer ->
            (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0
             with Unix.Unix_error _ -> ());
            (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0
             with Unix.Unix_error _ -> ());
            (* Read (and ignore) the scraper's request line: the answer
               is the full exposition either way. *)
            (let buf = Bytes.create 4096 in
             try ignore (Unix.read fd buf 0 (Bytes.length buf))
             with Unix.Unix_error _ -> ());
            let body = Obs.Expose.render ~extra_gauges:(live_gauges t) () in
            let resp =
              Printf.sprintf
                "HTTP/1.0 200 OK\r\n\
                 Content-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: %d\r\n\r\n%s"
                (String.length body) body
            in
            (try ignore (Unix.write_substring fd resp 0 (String.length resp))
             with Unix.Unix_error _ -> ());
            close_fd fd)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  close_fd lfd;
  match t.cfg.stats_addr with
  | Some (Protocol.Unix_sock path) -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()

(* ---------------- run ---------------- *)

let run t =
  (* A client vanishing mid-response must surface as EPIPE on the write,
     not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match bind_listener t.cfg.addr with
  | Error msg -> Error msg
  | Ok lfd ->
      let stats_thread =
        match t.cfg.stats_addr with
        | None -> Ok None
        | Some addr -> (
            match bind_listener addr with
            | Error msg ->
                close_fd lfd;
                Error msg
            | Ok sfd ->
                Unix.set_nonblock sfd;
                Ok (Some (Thread.create (fun () -> stats_listener_loop t sfd) ())))
      in
      (match stats_thread with
      | Error msg -> Error msg
      | Ok stats_thread ->
      Unix.set_nonblock lfd;
      Atomic.set t.listening true;
      let dispatchers =
        List.init (max 1 t.cfg.dispatchers) (fun _ ->
            Thread.create dispatcher_loop t)
      in
      let janitor =
        if t.cfg.cache_file <> None then Some (Thread.create janitor_loop t)
        else None
      in
      let readers = ref [] in
      while not (Atomic.get t.stop) do
        (* Periodic maintenance rides the accept tick: completed trace
           events stream out (bounded buffers stay bounded), and an
           operator's dump request (SIGQUIT via {!request_flight_dump})
           is honoured between accepts. *)
        Obs.Trace.stream_flush ();
        if Atomic.exchange t.flight_wanted false then
          flight_dump_now t ~why:"requested";
        match Unix.select [ lfd ] [] [] 0.2 with
        | [], _, _ -> ()
        | _ -> (
            match accept_conn t lfd with
            | None -> ()
            | Some conn ->
                readers := Thread.create (fun () -> reader_loop t conn) () :: !readers)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      (* ---- drain ---- *)
      Atomic.set t.listening false;
      Obs.Flight.record "drain_begin";
      close_fd lfd;
      (match t.cfg.addr with
      | Protocol.Unix_sock path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
      | Protocol.Tcp _ -> ());
      Mutex.lock t.m;
      t.stopping <- true;
      t.drain_deadline <-
        Int64.add (Obs.Clock.now_ns ())
          (Int64.of_float (t.cfg.drain_timeout *. 1e9));
      Condition.broadcast t.jobs_cond;
      Mutex.unlock t.m;
      List.iter Thread.join dispatchers;
      Obs.Flight.record ~v:(List.length dispatchers) "drain_dispatchers";
      (* Wake readers blocked in [read]: shutdown the receive side.  They
         observe EOF, release their connections and exit. *)
      let conns = locked t (fun () -> t.conns) in
      List.iter
        (fun c ->
          try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        conns;
      List.iter (fun th -> Thread.join th) !readers;
      Obs.Flight.record ~v:(List.length !readers) "drain_readers";
      (match janitor with Some th -> Thread.join th | None -> ());
      (match stats_thread with Some th -> Thread.join th | None -> ());
      save_cache t;
      Obs.Flight.record "drain_done";
      flight_dump_now t ~why:"drain";
      Obs.Trace.stream_flush ();
      Ok ())
