(* The domain pool, and the -j 1 vs -j N determinism contract of every
   pipeline stage that draws on it. *)

let with_pool jobs f =
  let pool = Parallel.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

(* Resize the process-default pool for the duration of [f] only, so the
   rest of the suite keeps the serial default. *)
let with_jobs jobs f =
  Parallel.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs 1) f

let test_map_order () =
  List.iter
    (fun jobs ->
      with_pool jobs @@ fun pool ->
      let input = Array.init 100 Fun.id in
      Alcotest.(check (array int))
        (Printf.sprintf "squares in order (jobs=%d)" jobs)
        (Array.map (fun i -> i * i) input)
        (Parallel.Pool.map pool (fun i -> i * i) input))
    [ 1; 2; 4 ]

let test_map_edges () =
  with_pool 4 @@ fun pool ->
  Alcotest.(check (array int)) "empty" [||] (Parallel.Pool.map pool succ [||]);
  Alcotest.(check (array int)) "single" [| 8 |] (Parallel.Pool.map pool succ [| 7 |]);
  Alcotest.(check (list string)) "map_list" [ "1"; "2"; "3" ]
    (Parallel.Pool.map_list pool string_of_int [ 1; 2; 3 ])

let test_exception_propagation () =
  with_pool 4 @@ fun pool ->
  match
    Parallel.Pool.map pool
      (fun i -> if i >= 3 then failwith (string_of_int i) else i)
      (Array.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected the task exception to re-raise"
  | exception Failure msg ->
      (* the first failure cancels the batch; the reported index is the
         lowest among tasks that actually ran, which cancellation makes
         best-effort — any genuinely failing index is acceptable *)
      let i = int_of_string msg in
      Alcotest.(check bool)
        (Printf.sprintf "a failing index re-raised (got %d)" i)
        true
        (i >= 3 && i < 16)

let test_raising_task_storm () =
  (* The satellite regression: batches where many tasks raise must not
     deadlock the waiters or poison the workers — after each storm the
     same pool computes a clean batch correctly. *)
  with_pool 4 @@ fun pool ->
  for round = 1 to 3 do
    (match
       Parallel.Pool.map pool
         (fun i -> if i land 1 = 0 then failwith "boom" else i)
         (Array.init 100 Fun.id)
     with
    | _ -> Alcotest.fail "expected the storm to re-raise"
    | exception Failure _ -> ());
    Alcotest.(check (array int))
      (Printf.sprintf "pool usable after storm %d" round)
      (Array.init 64 (fun i -> i + round))
      (Parallel.Pool.map pool (fun i -> i + round) (Array.init 64 Fun.id))
  done

let test_cancellation_churn () =
  (* Sustained cancellation churn: several submitter threads hammer one
     shared pool with batches whose first failure cancels the rest,
     back to back, with no recovery pause — interleaved with clean
     batches that must still come out exact.  This is the daemon's
     steady state under storm (every request batch can carry a failing
     cone), so the pool must neither deadlock, nor leak the cancel into
     a sibling submitter's batch, nor mis-slot a result. *)
  with_pool 4 @@ fun pool ->
  let submitters = 4 and rounds = 25 in
  let failures = Array.make submitters 0 in
  let wrong = Array.make submitters 0 in
  let threads =
    Array.init submitters (fun s ->
        Thread.create
          (fun () ->
            let rng = Logic.Rng.create (0xC0FFEE + s) in
            for r = 1 to rounds do
              let fail_at = Logic.Rng.int rng 32 in
              (match
                 Parallel.Pool.map pool
                   (fun i ->
                     if i = fail_at then failwith "churn";
                     if Logic.Rng.int rng 4 = 0 then Thread.yield ();
                     i * i)
                   (Array.init 32 Fun.id)
               with
              | _ -> ()
              | exception Failure _ -> failures.(s) <- failures.(s) + 1);
              let clean =
                Parallel.Pool.map pool
                  (fun i -> (i * i) + r)
                  (Array.init 48 Fun.id)
              in
              if clean <> Array.init 48 (fun i -> (i * i) + r) then
                wrong.(s) <- wrong.(s) + 1
            done)
          ())
  in
  Array.iter Thread.join threads;
  Alcotest.(check int) "every raising batch cancelled and re-raised"
    (submitters * rounds)
    (Array.fold_left ( + ) 0 failures);
  Alcotest.(check int) "no clean batch was corrupted by a neighbour's cancel"
    0
    (Array.fold_left ( + ) 0 wrong)

let test_chaos_pool_storm () =
  (* Same contract under seeded mixed faults (raise / delay / budget
     exhaustion) via the chaos harness. *)
  let r = Check.Chaos.pool_storm ~rounds:4 ~jobs:4 ~tasks:100 ~seed:42 () in
  Alcotest.(check bool) "faults were injected" true (r.Check.Chaos.injected > 0);
  Alcotest.(check int) "every storm propagated its first fault"
    r.Check.Chaos.storms r.Check.Chaos.propagated;
  Alcotest.(check bool) "pool usable after every storm" true
    r.Check.Chaos.usable

let test_nested_maps () =
  with_pool 3 @@ fun pool ->
  let out =
    Parallel.Pool.map pool
      (fun i ->
        Array.fold_left ( + ) 0
          (Parallel.Pool.map pool (fun j -> (10 * i) + j) (Array.init 8 Fun.id)))
      (Array.init 5 Fun.id)
  in
  Alcotest.(check (array int)) "inner sums"
    (Array.init 5 (fun i -> (80 * i) + 28))
    out

(* Submit the one-task batch [f] until it lands off this domain: a
   hand-off needs a sleeping worker, and a fresh worker, or one that has
   just finished, may still be on its way to sleep.  [f] answers [None]
   when it ran inline. *)
let until_handed_off pool f =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    match Parallel.Pool.map pool f [| () |] with
    | [| Some v |] -> v
    | _ when Unix.gettimeofday () > deadline ->
        Alcotest.fail "no one-task batch was handed off in 5 s"
    | _ ->
        Thread.delay 0.002;
        go ()
  in
  go ()

let off_domain self = (Domain.self () :> int) <> self

(* The daemon's path: a one-task batch on a 2-job pool whose worker is
   asleep runs on the worker's domain, and the batch contract holds. *)
let test_handoff () =
  with_pool 2 @@ fun pool ->
  let self = (Domain.self () :> int) in
  let s0 = Parallel.Pool.stats pool in
  Alcotest.(check int) "returned its value" 21
    (until_handed_off pool (fun () -> if off_domain self then Some (7 * 3) else None));
  let s1 = Parallel.Pool.stats pool in
  let d f = f s1 - f s0 in
  Alcotest.(check int) "one task per batch"
    (d (fun s -> s.Parallel.Pool.batches))
    (d (fun s -> s.Parallel.Pool.tasks_run));
  Alcotest.(check bool) "the hand-off counts as a steal" true
    (d (fun s -> s.Parallel.Pool.steals) >= 1);
  (match
     until_handed_off pool (fun () ->
         if off_domain self then failwith "handed off" else None)
   with
  | () -> Alcotest.fail "expected the handed-off task's exception"
  | exception Failure msg -> Alcotest.(check string) "re-raised" "handed off" msg);
  (* A handed-off task may itself map: 16 tasks, on the worker alone
     while the submitter sleeps. *)
  Alcotest.(check int) "nested batch complete" 1240
    (until_handed_off pool (fun () ->
         if off_domain self then
           Some
             (Array.fold_left ( + ) 0
                (Parallel.Pool.map pool (fun j -> j * j) (Array.init 16 Fun.id)))
         else None))

(* Two systhreads on one domain each submit a one-task batch: one hands
   off to the sleeping worker, the other runs inline, so the two tasks
   run at once on two domains.  Each task waits (yielding its domain)
   until both have started.  A round where the worker was not yet back
   asleep runs both inline; the pool must manage two domains within a
   few rounds. *)
let test_handoff_two_domains () =
  with_pool 2 @@ fun pool ->
  let round () =
    let self = (Domain.self () :> int) in
    ignore (until_handed_off pool (fun () -> if off_domain self then Some () else None));
    Thread.delay 0.02;
    let started = Atomic.make 0 in
    let domains = Array.make 2 (-1) in
    let task k () =
      Atomic.incr started;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      domains.(k) <- (Domain.self () :> int)
    in
    let threads =
      Array.init 2 (fun k ->
          Thread.create (fun () -> ignore (Parallel.Pool.map pool (task k) [| () |])) ())
    in
    Array.iter Thread.join threads;
    Atomic.get started = 2 && domains.(0) <> domains.(1)
  in
  let rec go n = n > 0 && (round () || go (n - 1)) in
  Alcotest.(check bool) "two one-task maps ran on two domains" true (go 20)

(* Shutdown never strands a promised task: whichever way the race with
   a hand-off goes, every submitter gets its value back. *)
let test_handoff_shutdown () =
  for i = 1 to 20 do
    let pool = Parallel.Pool.create ~jobs:2 in
    Thread.delay (0.001 *. float_of_int (i mod 4));
    let got = ref 0 in
    let th =
      Thread.create (fun () -> got := (Parallel.Pool.map pool succ [| 41 |]).(0)) ()
    in
    Parallel.Pool.shutdown pool;
    Thread.join th;
    Alcotest.(check int) "answered" 42 !got
  done

let test_pool_stats () =
  (* Counter semantics on a quiesced pool.  The steal test forces work
     onto a non-submitting domain: task 0 spins until some other task
     has run, and with jobs >= 2 the only way that happens is a worker
     stealing from the queue while the submitter is stuck in task 0. *)
  with_pool 2 @@ fun pool ->
  let s0 = Parallel.Pool.stats pool in
  Alcotest.(check int) "fresh pool ran nothing" 0 s0.Parallel.Pool.tasks_run;
  let others_ran = Atomic.make 0 in
  let n = 16 in
  ignore
    (Parallel.Pool.map pool
       (fun i ->
         if i = 0 then
           while Atomic.get others_ran = 0 do Domain.cpu_relax () done
         else Atomic.incr others_ran)
       (Array.init n Fun.id));
  let s = Parallel.Pool.stats pool in
  Alcotest.(check int) "tasks_run counts the batch" n s.Parallel.Pool.tasks_run;
  Alcotest.(check int) "one batch" 1 s.Parallel.Pool.batches;
  Alcotest.(check bool) "at least one steal" true (s.Parallel.Pool.steals >= 1);
  Alcotest.(check bool) "steals never exceed tasks" true
    (s.Parallel.Pool.steals <= s.Parallel.Pool.tasks_run);
  Alcotest.(check bool) "queue was observed" true
    (s.Parallel.Pool.peak_queue_depth >= 1);
  Alcotest.(check bool) "busy time accumulated" true
    (s.Parallel.Pool.busy_ns > 0L);
  (* Serial fast path still accounts tasks and batches. *)
  with_pool 1 @@ fun serial ->
  ignore (Parallel.Pool.map serial succ (Array.init 5 Fun.id));
  let s1 = Parallel.Pool.stats serial in
  Alcotest.(check int) "serial tasks" 5 s1.Parallel.Pool.tasks_run;
  Alcotest.(check int) "serial batches" 1 s1.Parallel.Pool.batches;
  Alcotest.(check int) "serial never steals" 0 s1.Parallel.Pool.steals

let test_default_pool () =
  Alcotest.(check int) "serial by default" 1 (Parallel.Pool.get_jobs ());
  with_jobs 3 (fun () ->
      Alcotest.(check int) "resized" 3 (Parallel.Pool.get_jobs ());
      Alcotest.(check (array int)) "map_default order"
        (Array.init 50 (fun i -> -i))
        (Parallel.Pool.map_default (fun i -> -i) (Array.init 50 Fun.id)));
  Alcotest.(check int) "restored" 1 (Parallel.Pool.get_jobs ())

(* ------------------------------------------------------------------ *)
(* Determinism: the parallel pipeline stages must be bit-identical at  *)
(* any worker count.                                                   *)
(* ------------------------------------------------------------------ *)

let test_fuzz_deterministic () =
  let params =
    {
      Check.Fuzz.default_params with
      Check.Fuzz.seed = 11;
      budget = 8;
      max_nodes = 200;
      eval_vectors = 128;
      sim_pairs = 4;
    }
  in
  let report jobs =
    (* Per-run wall-clock timing is the one report block that is
       legitimately schedule-dependent; the determinism contract is over
       the stripped report. *)
    with_jobs jobs (fun () ->
        Check.Report.to_json (Check.Report.strip_timing (Check.Fuzz.run params)))
  in
  Alcotest.(check string) "fuzz report identical at -j1 and -j4" (report 1)
    (report 4)

let test_fuzz_timing_present () =
  let params =
    { Check.Fuzz.default_params with Check.Fuzz.seed = 5; budget = 3;
      eval_vectors = 64; sim_pairs = 2 }
  in
  let r = Check.Fuzz.run params in
  match r.Check.Report.timing with
  | None -> Alcotest.fail "expected a timing block on an unstripped report"
  | Some t ->
      Alcotest.(check int) "every merged run is timed" r.Check.Report.runs
        t.Check.Report.runs_timed;
      Alcotest.(check bool) "total covers max" true
        (t.Check.Report.total_s >= t.Check.Report.max_s
        && t.Check.Report.max_s >= 0.);
      Alcotest.(check bool) "stripping removes it" true
        ((Check.Report.strip_timing r).Check.Report.timing = None)

let test_sweep_deterministic () =
  let net = Gen.Suite.build_exn "cm150" in
  let render jobs =
    with_jobs jobs (fun () -> Mapper.Multi.render (Mapper.Multi.sweep net))
  in
  Alcotest.(check string) "portfolio sweep identical at -j1 and -j4" (render 1)
    (render 4)

let test_equiv_deterministic () =
  let net = Gen.Suite.build_exn "cm150" in
  let mapped =
    Domino.Circuit.to_network
      (Mapper.Algorithms.soi_domino_map net).Mapper.Algorithms.circuit
  in
  let verdict jobs =
    with_jobs jobs (fun () -> Logic.Equiv.networks_per_output net mapped)
  in
  Alcotest.(check bool) "proven equivalent at -j1" true
    (verdict 1 = Logic.Equiv.Equivalent);
  Alcotest.(check bool) "same verdict at -j4" true (verdict 1 = verdict 4)

let test_equiv_counterexample_deterministic () =
  (* Two outputs; only the second differs.  The parallel per-cone check
     must report the same first-in-output-order counterexample as the
     serial loop. *)
  let mk g =
    let n = Logic.Network.create () in
    let x = Logic.Network.add_input ~name:"x" n in
    let y = Logic.Network.add_input ~name:"y" n in
    Logic.Network.set_output n "same" (Logic.Network.add_gate n Logic.Gate.And [| x; y |]);
    Logic.Network.set_output n "diff" (Logic.Network.add_gate n g [| x; y |]);
    n
  in
  let a = mk Logic.Gate.And and b = mk Logic.Gate.Or in
  let verdict jobs =
    with_jobs jobs (fun () -> Logic.Equiv.networks_per_output a b)
  in
  let v1 = verdict 1 and v4 = verdict 4 in
  (match v1 with
  | Logic.Equiv.Counterexample { output; _ } ->
      Alcotest.(check string) "differing output" "diff" output
  | v ->
      Alcotest.fail
        (Format.asprintf "expected counterexample, got %a" Logic.Equiv.pp_verdict v));
  Alcotest.(check bool) "same verdict at -j4" true (v1 = v4)

let test_fuzz_cli_deterministic () =
  (* End-to-end over the real executable: fuzz -j 1 and -j 4 must emit
     byte-identical JSON reports and agree on the exit status. *)
  let out jobs =
    let path = Filename.temp_file "fuzz" (Printf.sprintf "-j%d.json" jobs) in
    let cmd =
      Printf.sprintf
        "../bin/fuzz.exe --seed 3 --budget 6 --eval-vectors 64 --sim-pairs 2 \
         --json --no-timing -j %d > %s 2>/dev/null"
        jobs (Filename.quote path)
    in
    let status = Sys.command cmd in
    let ic = open_in path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    Sys.remove path;
    (status, contents)
  in
  let s1, r1 = out 1 and s4, r4 = out 4 in
  Alcotest.(check int) "same exit status" s1 s4;
  Alcotest.(check string) "byte-identical JSON report" r1 r4

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "map edge cases" `Quick test_map_edges;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "raising-task storm" `Quick test_raising_task_storm;
    Alcotest.test_case "cancellation churn" `Quick test_cancellation_churn;
    Alcotest.test_case "chaos pool storm" `Quick test_chaos_pool_storm;
    Alcotest.test_case "nested maps" `Quick test_nested_maps;
    Alcotest.test_case "pool stats" `Quick test_pool_stats;
    Alcotest.test_case "one-task hand-off" `Quick test_handoff;
    Alcotest.test_case "hand-offs on two domains" `Quick test_handoff_two_domains;
    Alcotest.test_case "shutdown after a hand-off" `Quick test_handoff_shutdown;
    Alcotest.test_case "default pool" `Quick test_default_pool;
    Alcotest.test_case "fuzz determinism" `Slow test_fuzz_deterministic;
    Alcotest.test_case "fuzz timing block" `Quick test_fuzz_timing_present;
    Alcotest.test_case "sweep determinism" `Slow test_sweep_deterministic;
    Alcotest.test_case "equiv determinism" `Slow test_equiv_deterministic;
    Alcotest.test_case "equiv counterexample determinism" `Quick
      test_equiv_counterexample_deterministic;
    Alcotest.test_case "fuzz CLI determinism" `Slow test_fuzz_cli_deterministic;
  ]
