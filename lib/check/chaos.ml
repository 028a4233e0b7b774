(* End-to-end chaos drills: prove, under seeded injected faults, that
   the pipeline's fault-tolerance claims hold — a raising task cannot
   wedge or poison the domain pool, a budgeted mapper degrades to a
   still-correct mapping, and a chaos-wrapped fuzz run accounts for
   every injected fault in its report.  The test-suite and the CI chaos
   leg both drive these. *)

open Resilience

(* ------------------------------------------------------------------ *)
(* Pool storm: batches of tasks that raise/delay/exhaust at seeded     *)
(* points, each storm followed by a real batch that must still work.   *)
(* ------------------------------------------------------------------ *)

type storm_result = {
  storms : int;  (* batches submitted *)
  propagated : int;  (* storms whose first fault re-raised at the submitter *)
  injected : int;  (* faults the injector fired, all kinds *)
  usable : bool;  (* every post-storm verification batch was correct *)
}

let pool_storm ?(rounds = 4) ~jobs ~tasks ~seed () =
  let chaos = Chaos.make ~rate:0.5 ~delay:0.0002 ~seed () in
  let pool = Parallel.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
  let propagated = ref 0 in
  let usable = ref true in
  let reference = Array.init 32 (fun i -> i * i) in
  for r = 0 to rounds - 1 do
    (match
       Parallel.Pool.map pool
         (fun i ->
           Chaos.inject chaos ~site:"pool.task" ~salt:((r * tasks) + i) ();
           i)
         (Array.init tasks Fun.id)
     with
    | _ -> ()
    | exception Chaos.Injected _ -> incr propagated
    | exception Budget.Exhausted (Budget.Injected _) -> incr propagated);
    (* The pool must survive the storm and still compute correctly. *)
    let out = Parallel.Pool.map pool (fun i -> i * i) (Array.init 32 Fun.id) in
    if out <> reference then usable := false
  done;
  {
    storms = rounds;
    propagated = !propagated;
    injected = Chaos.total_injected chaos;
    usable = !usable;
  }

(* ------------------------------------------------------------------ *)
(* Chaos-wrapped fuzzing and fault accounting.                         *)
(* ------------------------------------------------------------------ *)

let fuzz_storm ?(rate = 0.25) ?run_timeout ~seed ~budget () =
  let chaos = Chaos.make ~rate ~seed () in
  let params =
    { Fuzz.default_params with Fuzz.seed; budget; chaos; run_timeout }
  in
  (Fuzz.run params, chaos)

(* A complete report must mention every fault the injector fired: the
   merged (raises + delays + exhausts) equals the injector's counter.
   An early-stopped report discards the outcomes computed past the stop
   point, so its merged counts legitimately undercount; accounting is
   then unverifiable and the merged count is returned as-is. *)
let verify_accounting chaos (report : Report.t) =
  let merged =
    report.Report.chaos.Report.raises + report.Report.chaos.Report.delays
    + report.Report.chaos.Report.exhausts
  in
  if not report.Report.complete then Ok merged
  else
    let fired = Chaos.total_injected chaos in
    if merged = fired then Ok merged
    else
      Error
        (Printf.sprintf
           "chaos accounting mismatch: %d faults injected but %d in the \
            report (%d raises, %d delays, %d exhausts)"
           fired merged report.Report.chaos.Report.raises
           report.Report.chaos.Report.delays
           report.Report.chaos.Report.exhausts)

(* ------------------------------------------------------------------ *)
(* Degradation sweep: the acceptance drill for budgeted mapping.       *)
(* ------------------------------------------------------------------ *)

type sweep_row = {
  bench : string;
  outcome : string;  (* "ok" | "degraded" | "failed" *)
  equivalent : bool;  (* the mapped (possibly degraded) circuit verified *)
}

(* Map every suite circuit under a deliberately tiny tuple budget with
   the degrade policy: every row must come back Ok or Degraded — never
   Failed — and the resulting circuit must still verify equivalent to
   its source (sampled equivalence is accepted; the point here is the
   mapping, not the prover). *)
let degradation_sweep ?(max_tuples = 500) ?(vectors = 2048) () =
  List.map
    (fun e ->
      let net = e.Gen.Suite.build () in
      let budget = Budget.make ~max_tuples () in
      let outcome =
        Mapper.Algorithms.run_outcome ~budget ~on_exhaust:`Degrade
          Mapper.Algorithms.Soi_domino_map net
      in
      let equivalent =
        match Outcome.value outcome with
        | None -> false
        | Some r ->
            Domino.Circuit.equivalent_to ~vectors r.Mapper.Algorithms.circuit
              r.Mapper.Algorithms.unate
      in
      { bench = e.Gen.Suite.name; outcome = Outcome.label outcome; equivalent })
    Gen.Suite.all

(* ------------------------------------------------------------------ *)
(* Daemon storm: hostile clients against a live soimapd.               *)
(* ------------------------------------------------------------------ *)

type daemon_storm_result = {
  frames : int;  (* hostile/legit frames sent that expect a response *)
  aborted : int;  (* mid-frame disconnects (no response expected) *)
  d_ok : int;
  d_degraded : int;
  d_failed : int;
  d_rejected : int;
  d_errors : int;
  ledger : (string * int) list;  (* the daemon's closing service ledger *)
  ledger_ok : bool;  (* requests = ok + degraded + failed + rejected *)
  alive : bool;  (* the daemon still answers ping after the storm *)
}

let sockaddr_of = function
  | Service.Protocol.Unix_sock path -> (Unix.ADDR_UNIX path, Unix.PF_UNIX)
  | Service.Protocol.Tcp (host, port) ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ ->
          Unix.inet_addr_of_string "127.0.0.1"
      in
      (Unix.ADDR_INET (inet, port), Unix.PF_INET)

(* Half a frame, then vanish: the server must count a disconnect and
   carry on; nothing here can fail the drill. *)
let abort_mid_frame addr =
  let sa, dom = sockaddr_of addr in
  match Unix.socket dom Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd -> (
      match
        Unix.connect fd sa;
        let junk = {|{"id":"gone","op":"map","format":"suite","pay|} in
        ignore (Unix.write_substring fd junk 0 (String.length junk))
      with
      | () | (exception Unix.Unix_error _) -> (
          try Unix.close fd with Unix.Unix_error _ -> ()))

type tally = {
  mutable t_frames : int;
  mutable t_aborted : int;
  mutable t_ok : int;
  mutable t_degraded : int;
  mutable t_failed : int;
  mutable t_rejected : int;
  mutable t_errors : int;
  mutable t_transport : int;  (* lost responses: must stay 0 *)
}

let new_tally () =
  {
    t_frames = 0;
    t_aborted = 0;
    t_ok = 0;
    t_degraded = 0;
    t_failed = 0;
    t_rejected = 0;
    t_errors = 0;
    t_transport = 0;
  }

let record tally = function
  | Result.Error _ -> tally.t_transport <- tally.t_transport + 1
  | Result.Ok j -> (
      match Service.Protocol.response_status j with
      | Ok "ok" -> tally.t_ok <- tally.t_ok + 1
      | Ok "degraded" -> tally.t_degraded <- tally.t_degraded + 1
      | Ok "failed" -> tally.t_failed <- tally.t_failed + 1
      | Ok "rejected" -> tally.t_rejected <- tally.t_rejected + 1
      | Ok "error" -> tally.t_errors <- tally.t_errors + 1
      | Ok _ | Error _ -> tally.t_transport <- tally.t_transport + 1)

(* Remap bases for the storm: one more than the daemon's four baseline
   slots, so remaps evict bases and rebuild them. *)
let storm_bases = [| "cm150"; "mux"; "z4ml"; "cordic"; "frg1" |]

(* One hostile client: a seeded mix of malformed frames, oversized
   payloads, mid-frame disconnects, budget-tripping and unparsable
   cones, remaps (against evicted, unparsable and budget-tripping
   bases), and legitimate maps.  One connection per action, so the
   accept/close path is stormed too. *)
let storm_worker ~addr ~oversize ~rounds ~seed tally =
  let rng = Logic.Rng.create seed in
  let with_conn f =
    match Service.Client.connect ~timeout:30.0 addr with
    | Error _ -> tally.t_transport <- tally.t_transport + 1
    | Ok c -> Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () -> f c)
  in
  let expect c line =
    tally.t_frames <- tally.t_frames + 1;
    record tally (Service.Client.request c line)
  in
  for _ = 1 to rounds do
    match Logic.Rng.int rng 11 with
    | 0 ->
        (* malformed json *)
        with_conn (fun c -> expect c "]]]{{{ not json")
    | 1 ->
        (* valid json, invalid request: the CLI's --timeout 0 rule *)
        with_conn (fun c ->
            expect c
              {|{"id":"z","op":"map","format":"suite","payload":"z4ml","timeout":0}|})
    | 2 ->
        (* oversized frame: must get an error line back, then the
           server closes the connection.  Only read after the frame:
           a second line would be written to a closed socket. *)
        with_conn (fun c ->
            tally.t_frames <- tally.t_frames + 1;
            let big = String.make (oversize + 4096) 'x' in
            match Service.Client.send_line c big with
            | Error _ ->
                (* the server may slam the door before reading it all *)
                tally.t_errors <- tally.t_errors + 1
            | Ok () ->
                record tally
                  (Result.bind (Service.Client.recv_line c) Obs.Json.parse))
    | 3 ->
        tally.t_aborted <- tally.t_aborted + 1;
        abort_mid_frame addr
    | 4 ->
        (* budget-tripping cone under fail: an honest failed response *)
        with_conn (fun c ->
            expect c
              {|{"id":"trip","op":"map","format":"suite","payload":"c880","max_tuples":1,"on_exhaust":"fail"}|})
    | 5 ->
        (* unparsable payload: failed, isolated to this request *)
        with_conn (fun c ->
            expect c
              {|{"id":"junk","op":"map","format":"blif","payload":".model x\n.inputs a\n.outputs z\n.names a a a z\nBOGUS\n.end"}|})
    | 6 ->
        (* budget-tripping cone under degrade: still a mapped answer *)
        with_conn (fun c ->
            expect c
              {|{"id":"deg","op":"map","format":"suite","payload":"c880","max_tuples":1}|})
    | 7 ->
        (* remap against one of five bases in four slots *)
        with_conn (fun c ->
            expect c
              (Printf.sprintf
                 {|{"id":"rb","op":"remap","format":"suite","base":"%s","payload":"z4ml"}|}
                 storm_bases.(Logic.Rng.int rng (Array.length storm_bases))))
    | 8 ->
        (* unparsable base: failed, isolated to this request *)
        with_conn (fun c ->
            expect c
              {|{"id":"rjunk","op":"remap","format":"blif","base":".model x\n.inputs a\n.outputs z\n.names a a a z\nBOGUS\n.end","payload":".model y\n.inputs a\n.outputs z\n.names a z\n1 1\n.end"}|})
    | 9 ->
        (* a base build that trips its budget under fail: no entry kept *)
        with_conn (fun c ->
            expect c
              {|{"id":"rtrip","op":"remap","format":"suite","base":"c880","payload":"z4ml","max_tuples":1,"on_exhaust":"fail"}|})
    | _ ->
        with_conn (fun c ->
            expect c
              (Printf.sprintf
                 {|{"id":"m%d","op":"map","format":"suite","payload":"z4ml","delay_ms":%d}|}
                 (Logic.Rng.int rng 1000)
                 (Logic.Rng.int rng 20)))
  done

let storm_addr ~addr ~oversize ~workers ~rounds ~seed () =
  let tallies = Array.init workers (fun _ -> new_tally ()) in
  let threads =
    Array.mapi
      (fun w tally ->
        Thread.create
          (fun () ->
            storm_worker ~addr ~oversize ~rounds ~seed:(seed + (w * 7919))
              tally)
          ())
      tallies
  in
  Array.iter Thread.join threads;
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  (* Post-storm: the daemon must still answer, and its ledger must
     balance.  Both come over the wire, so this also works against an
     external daemon (the CI soak leg). *)
  let alive, ledger =
    match Service.Client.connect ~timeout:30.0 addr with
    | Error _ -> (false, [])
    | Ok c ->
        Fun.protect ~finally:(fun () -> Service.Client.close c) @@ fun () ->
        let alive =
          match Service.Client.request c {|{"id":"alive","op":"ping"}|} with
          | Ok j -> Service.Protocol.response_status j = Ok "ok"
          | Error _ -> false
        in
        let ledger =
          match Service.Client.request c {|{"id":"l","op":"stats"}|} with
          | Error _ -> []
          | Ok j -> (
              match Obs.Json.member "service" j with
              | Some (Obs.Json.Obj fields) ->
                  List.filter_map
                    (fun (k, v) ->
                      Option.map (fun n -> (k, n)) (Obs.Json.to_int v))
                    fields
              | _ -> [])
        in
        (alive, ledger)
  in
  let lv k = try List.assoc k ledger with Not_found -> 0 in
  let ledger_ok =
    ledger <> []
    && lv "requests"
       = lv "ok" + lv "degraded" + lv "failed" + lv "rejected"
  in
  {
    frames = sum (fun t -> t.t_frames);
    aborted = sum (fun t -> t.t_aborted);
    d_ok = sum (fun t -> t.t_ok);
    d_degraded = sum (fun t -> t.t_degraded);
    d_failed = sum (fun t -> t.t_failed);
    d_rejected = sum (fun t -> t.t_rejected);
    d_errors = sum (fun t -> t.t_errors);
    ledger;
    ledger_ok;
    alive;
  }

let daemon_storm ?addr ?(workers = 4) ?(rounds = 12) ~seed () =
  match addr with
  | Some addr ->
      (* External daemon (CI soak): storm it over the wire only. *)
      storm_addr ~addr ~oversize:(1 lsl 20) ~workers ~rounds ~seed ()
  | None ->
      (* Self-hosted: spin a daemon up in-process with a deliberately
         tight config (small queue, small frames, short budgets) so the
         hostile paths actually fire, then drain it and require a clean
         exit. *)
      let path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "soimapd-storm-%d-%d.sock" (Unix.getpid ()) seed)
      in
      let addr = Service.Protocol.Unix_sock path in
      let oversize = 1 lsl 16 in
      let cfg =
        {
          (Service.Server.default_config ~addr) with
          Service.Server.queue_depth = 8;
          max_connections = 32;
          dispatchers = 2;
          max_request_bytes = oversize;
          io_timeout = 5.0;
          drain_timeout = 10.0;
          default_timeout = 10.0;
          max_timeout = 10.0;
          max_delay_ms = 50;
        }
      in
      let srv = Service.Server.create cfg in
      let runner = Thread.create (fun () -> Service.Server.run srv) () in
      let deadline = Int64.add (Obs.Clock.now_ns ()) 5_000_000_000L in
      while
        (not (Service.Server.listening srv))
        && Int64.compare (Obs.Clock.now_ns ()) deadline < 0
      do
        Thread.yield ()
      done;
      let result = storm_addr ~addr ~oversize ~workers ~rounds ~seed () in
      Service.Server.request_stop srv;
      Thread.join runner;
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      result
