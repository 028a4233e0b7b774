(* Fork-join pool over OCaml 5 domains; stdlib only (Domain, Atomic,
   Mutex, Condition).

   A batch is an array of tasks published on a shared run queue.  Every
   participating domain claims indices with Atomic.fetch_and_add — the
   steal — executes them, and bumps the batch's completion count.  The
   submitter helps until all indices are claimed, then waits for the
   stragglers on a condition variable.  Workers that find the queue
   empty sleep on the same condition variable.

   Batches stay on the queue until fully claimed, so several concurrent
   submitters (nested maps) interleave without coordination beyond the
   queue mutex.  A domain blocked in [wait_done] has no claimed-but-
   unfinished index of any batch (it finishes each steal before looking
   for the next), so every claimed index is on some live domain's stack
   and fork-join nesting cannot deadlock.

   A one-task batch is handed off when a worker sleeps: the submitter
   promises the task to that worker and waits on [done_] without
   helping, which frees its domain for its other systhreads (the
   daemon's dispatchers and readers share domain 0).  Promises are
   counted under the pool mutex, [idle] sleeping workers against the
   queued [handoffs], so two submitters never hand to the same worker.
   A worker takes queued hand-offs before anything else and before it
   exits, so a promised task always reaches a live domain, and shutdown
   never strands one. *)

type batch = {
  run : int -> unit;  (* execute task [i]; may raise *)
  size : int;
  submitter : int;  (* domain id of the submitting domain, for steal
                       accounting *)
  next : int Atomic.t;  (* next index to claim *)
  cancelled : bool Atomic.t;  (* set on first failure; rest of the batch
                                 is claimed but skipped *)
  failure : (int * exn * Printexc.raw_backtrace) option Atomic.t;
      (* first recorded failure, kept at the lowest index observed *)
  mutable finished : int;  (* settled tasks (run, failed, or skipped);
                              guarded by the pool mutex *)
}

(* Record a task failure, keeping the lowest-index one, and cancel the
   rest of the batch.  With cancellation in play "lowest" is best-effort
   (only tasks claimed before the cancel landed can compete), but the
   error that propagates is always a real task failure. *)
let record_failure b i e bt =
  let rec loop () =
    let prev = Atomic.get b.failure in
    let keep = match prev with None -> true | Some (j, _, _) -> i < j in
    if keep && not (Atomic.compare_and_set b.failure prev (Some (i, e, bt)))
    then loop ()
  in
  loop ();
  Atomic.set b.cancelled true

(* Scheduling observability.  The per-pool counters are always on —
   they are a handful of atomic adds per batch participation, not per
   task — while the cross-pool {!Obs.Metrics} mirrors are gated behind
   the metrics switch.  All of these describe the *schedule*, so their
   values legitimately differ between pool sizes and runs; only
   [tasks_run]/[batches] are work-derived. *)
type stats = {
  tasks_run : int;  (* task indices executed (skipped-on-cancel excluded) *)
  steals : int;  (* tasks executed by a domain other than the submitter *)
  batches : int;  (* map/map_list calls, serial fast path included *)
  peak_queue_depth : int;  (* max batches simultaneously on the run queue *)
  busy_ns : int64;  (* summed wall-clock the domains spent inside batches *)
}

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* new batch published / shutdown *)
  done_ : Condition.t;  (* some batch finished a task *)
  mutable queue : batch list;  (* batches with unclaimed indices *)
  mutable handoffs : batch list;
      (* one-task batches promised to sleeping workers, oldest first;
         their submitters do not help *)
  mutable idle : int;  (* workers asleep on [work] *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  st_tasks : int Atomic.t;
  st_steals : int Atomic.t;
  st_batches : int Atomic.t;
  st_peak_queue : int Atomic.t;
  st_busy_ns : int Atomic.t;  (* ns fit in 63 bits for ~292 years *)
}

let jobs p = p.n_jobs

let stats p =
  {
    tasks_run = Atomic.get p.st_tasks;
    steals = Atomic.get p.st_steals;
    batches = Atomic.get p.st_batches;
    peak_queue_depth = Atomic.get p.st_peak_queue;
    busy_ns = Int64.of_int (Atomic.get p.st_busy_ns);
  }

(* Process-wide mirrors, aggregated across every pool; scheduling
   metrics, so registered unstable. *)
let m_tasks = Obs.Metrics.counter ~stable:false "pool.tasks"
let m_steals = Obs.Metrics.counter ~stable:false "pool.steals"
let m_busy = Obs.Metrics.counter ~stable:false "pool.busy_ns"

let atomic_max a v =
  let rec go () =
    let prev = Atomic.get a in
    if v > prev && not (Atomic.compare_and_set a prev v) then go ()
  in
  go ()

(* Steal and settle every remaining index of [b]; returns the number
   settled so the caller can batch the [finished] update.  A raising
   task records its failure and cancels the batch — the remaining
   indices are still claimed (so waiters are credited and the join
   terminates) but their tasks are skipped.  No exception escapes, so a
   raising task can never kill a worker domain or wedge the pool. *)
let drain b =
  let executed = ref 0 in
  let ran = ref 0 in
  let claiming = ref true in
  while !claiming do
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.size then begin
      if not (Atomic.get b.cancelled) then begin
        (try b.run i
         with e -> record_failure b i e (Printexc.get_raw_backtrace ()));
        incr ran
      end;
      incr executed
    end
    else claiming := false
  done;
  (!executed, !ran)

(* Drain with the scheduling bookkeeping: wall-clock busy time, task and
   steal counts (a steal is a task executed by a domain other than the
   batch's submitter), and — when tracing is on — a [pool.drain] span on
   this domain's track.  The cost when observability is off is two
   monotonic clock reads and up to three atomic adds per batch
   participation, not per task. *)
let drain_timed p b =
  let t0 = Obs.Clock.now_ns () in
  let executed, ran =
    Obs.Trace.with_span ~cat:"pool" "pool.drain" (fun () -> drain b)
  in
  if executed > 0 then begin
    let dt = max 0 (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0)) in
    ignore (Atomic.fetch_and_add p.st_busy_ns dt);
    Obs.Metrics.add m_busy dt;
    if ran > 0 then begin
      ignore (Atomic.fetch_and_add p.st_tasks ran);
      Obs.Metrics.add m_tasks ran;
      if (Domain.self () :> int) <> b.submitter then begin
        ignore (Atomic.fetch_and_add p.st_steals ran);
        Obs.Metrics.add m_steals ran
      end
    end
  end;
  executed

let credit p b executed =
  if executed > 0 then begin
    Mutex.lock p.mutex;
    b.finished <- b.finished + executed;
    if b.finished = b.size then Condition.broadcast p.done_;
    Mutex.unlock p.mutex
  end

let run_unlocked p b =
  Mutex.unlock p.mutex;
  credit p b (drain_timed p b);
  Mutex.lock p.mutex

let worker_loop p =
  Mutex.lock p.mutex;
  while not (p.stop && p.handoffs = []) do
    match p.handoffs with
    | b :: rest ->
        p.handoffs <- rest;
        run_unlocked p b
    | [] -> (
        (* Drop fully-claimed batches, then pick one with work left. *)
        p.queue <- List.filter (fun b -> Atomic.get b.next < b.size) p.queue;
        match p.queue with
        | b :: _ -> run_unlocked p b
        | [] ->
            p.idle <- p.idle + 1;
            Condition.wait p.work p.mutex;
            p.idle <- p.idle - 1)
  done;
  Mutex.unlock p.mutex

let create ~jobs:n =
  if n < 1 then invalid_arg "Pool.create: jobs must be at least 1";
  let p =
    {
      n_jobs = n;
      mutex = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      queue = [];
      handoffs = [];
      idle = 0;
      stop = false;
      workers = [];
      st_tasks = Atomic.make 0;
      st_steals = Atomic.make 0;
      st_batches = Atomic.make 0;
      st_peak_queue = Atomic.make 0;
      st_busy_ns = Atomic.make 0;
    }
  in
  p.workers <- List.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p));
  p

let shutdown p =
  Mutex.lock p.mutex;
  p.stop <- true;
  Condition.broadcast p.work;
  Mutex.unlock p.mutex;
  let ws = p.workers in
  p.workers <- [];
  List.iter Domain.join ws

(* The serial path: one domain, no batch record. *)
let map_inline p f arr =
  let n = Array.length arr in
  let t0 = Obs.Clock.now_ns () in
  let r = Array.map f arr in
  let dt = max 0 (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0)) in
  ignore (Atomic.fetch_and_add p.st_tasks n);
  ignore (Atomic.fetch_and_add p.st_busy_ns dt);
  Obs.Metrics.add m_tasks n;
  Obs.Metrics.add m_busy dt;
  r

(* Publish [b] under the pool mutex: a many-task batch on the run queue,
   a one-task batch as a hand-off when a sleeping worker is not yet
   promised one.  [false] means [b] was not published. *)
let publish p b =
  Mutex.lock p.mutex;
  let depth =
    if b.size > 1 then begin
      p.queue <- b :: p.queue;
      Condition.broadcast p.work;
      List.length p.queue
    end
    else if (not p.stop) && p.idle > List.length p.handoffs then begin
      p.handoffs <- p.handoffs @ [ b ];
      Condition.signal p.work;
      List.length p.queue + List.length p.handoffs
    end
    else 0
  in
  Mutex.unlock p.mutex;
  if depth > 0 then atomic_max p.st_peak_queue depth;
  depth > 0

let map p f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    ignore (Atomic.fetch_and_add p.st_batches 1);
    if p.n_jobs = 1 then map_inline p f arr
    else begin
      let results = Array.make n None in
      let b =
        {
          run = (fun i -> results.(i) <- Some (f arr.(i)));
          size = n;
          submitter = (Domain.self () :> int);
          next = Atomic.make 0;
          cancelled = Atomic.make false;
          failure = Atomic.make None;
          finished = 0;
        }
      in
      if not (publish p b) then map_inline p f arr
      else begin
        (* The submitter helps with its many-task batch; a hand-off is
           left to its worker. *)
        if n > 1 then credit p b (drain_timed p b);
        Mutex.lock p.mutex;
        while b.finished < b.size do
          Condition.wait p.done_ p.mutex
        done;
        Mutex.unlock p.mutex;
        match Atomic.get b.failure with
        | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> Array.map (function Some v -> v | None -> assert false) results
      end
    end
  end

let map_list p f l = Array.to_list (map p f (Array.of_list l))

(* ---------------- process-default pool ---------------- *)

let default_mutex = Mutex.create ()
let requested_jobs = ref 1
let default_pool : t option ref = ref None

let set_jobs n =
  if n < 0 then invalid_arg "Pool.set_jobs: jobs must be non-negative";
  let n = if n = 0 then Domain.recommended_domain_count () else n in
  Mutex.lock default_mutex;
  requested_jobs := n;
  (match !default_pool with
  | Some p when p.n_jobs <> n ->
      default_pool := None;
      Mutex.unlock default_mutex;
      shutdown p
  | _ -> Mutex.unlock default_mutex)

let get_jobs () =
  Mutex.lock default_mutex;
  let n = !requested_jobs in
  Mutex.unlock default_mutex;
  n

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ~jobs:!requested_jobs in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_mutex;
  p

let map_default f arr = map (default ()) f arr
let map_list_default f l = map_list (default ()) f l
