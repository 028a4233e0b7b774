(* soiload: a load generator for soimapd.

   Ramps concurrency in stages against a running daemon, retries
   rejected (overloaded/draining) requests with jittered exponential
   backoff, and reports a per-stage and total latency/outcome summary.
   The point is to make the daemon's admission control observable: a
   healthy overloaded daemon answers `rejected` fast and serves the
   retry, it does not stall or fall over.

   Examples:
     soiload --addr unix:/tmp/soimapd.sock --ramp 1,4,8 --requests 20
     soiload --addr tcp::7431 --bench z4ml --delay-ms 50 --ramp 2,16

   Exit codes: 0 when every request reached a terminal mapping response
   (ok/degraded/failed — failed is the daemon working as designed);
   1 when any request gave up (transport error, or still rejected after
   --retries attempts). *)

open Cmdliner

type result_row = {
  status : string;  (* ok | degraded | failed | giveup *)
  latency_ms : float;  (* first send to terminal response, incl. retries *)
  retries : int;
  trace_id : string;  (* the id we sent — and the daemon echoed *)
}

(* Per-stage latency quantiles via the shared bucket-interpolation
   estimator: observations land in the same 1-2-5 log-ns ladder the
   daemon's service.latency_ns histograms use, so a soiload p95 and a
   `soimap scrape` p95 are the same estimate of the same quantity. *)
let lat_bounds = Obs.Metrics.log_buckets ~lo:1_000 ~hi:10_000_000_000

let lat_counts rows =
  let nb = Array.length lat_bounds in
  let counts = Array.make (nb + 1) 0 in
  List.iter
    (fun r ->
      let ns = int_of_float (r.latency_ms *. 1e6) in
      let rec bucket i =
        if i >= nb || ns <= lat_bounds.(i) then i else bucket (i + 1)
      in
      let b = bucket 0 in
      counts.(b) <- counts.(b) + 1)
    rows;
  counts

let run_worker ~addr ~bench ~remap ~timeout ~delay_ms ~requests ~retries
    ~rng_seed out =
  let rng = Logic.Rng.create rng_seed in
  match Service.Client.connect_retry ~timeout:30.0 addr with
  | Error msg ->
      out :=
        List.init requests (fun i ->
            { status = "giveup: " ^ msg; latency_ms = 0.0; retries = 0;
              trace_id = Printf.sprintf "w%d-%d" rng_seed i })
  | Ok conn ->
      let rows = ref [] in
      for i = 0 to requests - 1 do
        (* One token serves as both request id and trace id: the daemon
           echoes it, and when the daemon traces, its span tree for this
           request is tagged with it — grep the trace for w7-3 and you
           see exactly where request 3 of worker 7 spent its time. *)
        let tid = Printf.sprintf "w%d-%d" rng_seed i in
        (* --remap turns every frame into an edit/remap pair: the daemon
           warm-maps BASE against its shared memo and re-prices only the
           payload's memo misses, so the ramp exercises the incremental
           path. *)
        let op, extra =
          match remap with
          | None -> ("map", "")
          | Some base -> ("remap", Printf.sprintf ",\"base\":\"%s\"" base)
        in
        let line =
          Printf.sprintf
            "{\"id\":\"%s\",\"trace_id\":\"%s\",\"op\":\"%s\",\
             \"format\":\"suite\",\"payload\":\"%s\"%s,\"timeout\":%g,\
             \"delay_ms\":%d}"
            tid tid op bench extra timeout delay_ms
        in
        let t0 = Obs.Clock.now_ns () in
        let rec attempt n =
          match Service.Client.request conn line with
          | Error msg ->
              { status = "giveup: " ^ msg; latency_ms = 0.0; retries = n;
                trace_id = tid }
          | Ok j -> (
              let elapsed () =
                Obs.Clock.ns_to_ms (Int64.sub (Obs.Clock.now_ns ()) t0)
              in
              (* The echo is part of the contract: a daemon that answers
                 with someone else's trace id is mixing up responses. *)
              let echoed =
                match Service.Protocol.response_trace_id j with
                | Some e -> e
                | None -> tid
              in
              if echoed <> tid then
                { status = "giveup: trace-id mismatch";
                  latency_ms = elapsed (); retries = n; trace_id = tid }
              else
                match Service.Protocol.response_status j with
                | Error msg ->
                    { status = "giveup: " ^ msg; latency_ms = elapsed ();
                      retries = n; trace_id = tid }
                | Ok "rejected" when n < retries ->
                    (* Exponential backoff with full jitter: sleep a
                       uniform draw from [0, base * 2^n], base 25 ms. *)
                    let cap = 0.025 *. Float.of_int (1 lsl min n 6) in
                    Unix.sleepf (Logic.Rng.float rng cap);
                    attempt (n + 1)
                | Ok "rejected" ->
                    { status = "giveup: rejected"; latency_ms = elapsed ();
                      retries = n; trace_id = tid }
                | Ok s ->
                    { status = s; latency_ms = elapsed (); retries = n;
                      trace_id = tid })
        in
        rows := attempt 0 :: !rows
      done;
      Service.Client.close conn;
      out := !rows

let run_stage ~addr ~bench ~remap ~timeout ~delay_ms ~requests ~retries
    ~stage_idx concurrency =
  let outs = Array.init concurrency (fun _ -> ref []) in
  let threads =
    Array.mapi
      (fun w out ->
        Thread.create
          (fun () ->
            run_worker ~addr ~bench ~remap ~timeout ~delay_ms ~requests
              ~retries
              ~rng_seed:((stage_idx * 1000) + w + 1)
              out)
          ())
      outs
  in
  Array.iter Thread.join threads;
  Array.to_list outs |> List.concat_map (fun r -> !r)

let summarize label rows =
  let count p = List.length (List.filter p rows) in
  let ok = count (fun r -> r.status = "ok") in
  let degraded = count (fun r -> r.status = "degraded") in
  let failed = count (fun r -> r.status = "failed") in
  let giveup =
    count (fun r -> String.length r.status >= 6 && String.sub r.status 0 6 = "giveup")
  in
  let retried = count (fun r -> r.retries > 0) in
  let retried_ok =
    count (fun r -> r.retries > 0 && (r.status = "ok" || r.status = "degraded"))
  in
  let answered =
    List.filter
      (fun r ->
        not (String.length r.status >= 6 && String.sub r.status 0 6 = "giveup"))
      rows
  in
  let counts = lat_counts answered in
  let q p =
    Obs.Metrics.quantile ~bounds:lat_bounds ~counts p /. 1e6 (* ns -> ms *)
  in
  (* The slowest request, by exact latency, with its trace id: the
     token to grep for in the daemon's trace file. *)
  let slowest =
    List.fold_left
      (fun acc r ->
        match acc with
        | Some best when best.latency_ms >= r.latency_ms -> acc
        | _ -> Some r)
      None answered
  in
  Printf.printf
    "%s: n=%d ok=%d degraded=%d failed=%d giveup=%d retried=%d retried_ok=%d \
     p50=%.1fms p95=%.1fms max=%.1fms%s\n%!"
    label (List.length rows) ok degraded failed giveup retried retried_ok
    (q 0.5) (q 0.95)
    (match slowest with Some r -> r.latency_ms | None -> 0.0)
    (match slowest with
    | Some r -> Printf.sprintf " slowest=%s" r.trace_id
    | None -> "");
  giveup

(* `soiload --storm SEED` runs the Check.Chaos.daemon_storm drill over
   the wire against the (externally started) daemon at --addr — the CI
   soak leg's hostile phase.  Exit 0 only if every expected response
   arrived with a known status, the ledger balanced, and the daemon
   still answers ping. *)
let run_storm addr seed =
  let r = Check.Chaos.daemon_storm ~addr ~seed () in
  let answered =
    r.Check.Chaos.d_ok + r.Check.Chaos.d_degraded + r.Check.Chaos.d_failed
    + r.Check.Chaos.d_rejected + r.Check.Chaos.d_errors
  in
  Printf.printf
    "storm: frames=%d answered=%d aborted=%d ok=%d degraded=%d failed=%d \
     rejected=%d errors=%d ledger_ok=%b alive=%b\n%!"
    r.Check.Chaos.frames answered r.Check.Chaos.aborted r.Check.Chaos.d_ok
    r.Check.Chaos.d_degraded r.Check.Chaos.d_failed r.Check.Chaos.d_rejected
    r.Check.Chaos.d_errors r.Check.Chaos.ledger_ok r.Check.Chaos.alive;
  List.iter
    (fun (k, v) -> Printf.printf "  ledger %-14s %d\n" k v)
    r.Check.Chaos.ledger;
  if r.Check.Chaos.frames <> answered then begin
    prerr_endline "soiload: storm lost responses";
    exit 1
  end;
  if not r.Check.Chaos.ledger_ok then begin
    prerr_endline
      "soiload: service ledger does not balance (requests <> ok + degraded \
       + failed + rejected)";
    exit 1
  end;
  if not r.Check.Chaos.alive then begin
    prerr_endline "soiload: daemon stopped answering ping";
    exit 1
  end

let main addr_str bench remap ramp requests timeout delay_ms retries storm =
  let addr =
    match Service.Protocol.addr_of_string addr_str with
    | Ok a -> a
    | Error msg ->
        prerr_endline ("soiload: " ^ msg);
        exit 2
  in
  (match storm with
  | Some seed ->
      run_storm addr seed;
      exit 0
  | None -> ());
  let ramp =
    String.split_on_char ',' ramp
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map (fun s ->
           match int_of_string_opt (String.trim s) with
           | Some n when n >= 1 -> n
           | _ ->
               prerr_endline ("soiload: bad --ramp stage: " ^ s);
               exit 2)
  in
  if requests < 1 || retries < 0 || timeout <= 0.0 || delay_ms < 0 then begin
    prerr_endline "soiload: --requests >= 1, --retries >= 0, --timeout > 0, --delay-ms >= 0";
    exit 2
  end;
  let giveups = ref 0 in
  let all = ref [] in
  List.iteri
    (fun i conc ->
      let rows =
        run_stage ~addr ~bench ~remap ~timeout ~delay_ms ~requests ~retries
          ~stage_idx:i conc
      in
      all := !all @ rows;
      giveups := !giveups + summarize (Printf.sprintf "stage c=%d" conc) rows)
    ramp;
  if List.length ramp > 1 then
    ignore (summarize "total" !all);
  if !giveups > 0 then exit 1

let cmd =
  let addr =
    Arg.(required & opt (some string) None & info [ "addr" ] ~docv:"ADDR"
           ~doc:"Daemon address (unix:PATH or tcp:HOST:PORT).")
  in
  let bench =
    Arg.(value & opt string "z4ml" & info [ "bench" ] ~docv:"NAME"
           ~doc:"Suite benchmark name sent as every request's payload.")
  in
  let remap =
    Arg.(value & opt (some string) None & info [ "remap" ] ~docv:"BASE"
           ~doc:"Send op:remap frames instead of op:map: every request \
                 carries $(docv) as the pre-edit base and --bench as the \
                 edited payload, so the ramp drives the daemon's \
                 incremental-remap path against its shared warm memo.")
  in
  let ramp =
    Arg.(value & opt string "1,4,8" & info [ "ramp" ] ~docv:"C1,C2,.."
           ~doc:"Concurrency ramp: one stage per comma-separated worker \
                 count; each worker opens its own connection.")
  in
  let requests =
    Arg.(value & opt int 10 & info [ "requests" ] ~docv:"N"
           ~doc:"Requests per worker per stage.")
  in
  let timeout =
    Arg.(value & opt float 10.0 & info [ "timeout" ] ~docv:"SEC"
           ~doc:"Per-request mapping budget sent to the daemon.")
  in
  let delay_ms =
    Arg.(value & opt int 0 & info [ "delay-ms" ] ~docv:"MS"
           ~doc:"Server-side pre-mapping delay per request (the daemon \
                 clamps it) — widens the in-flight window so admission \
                 control and retries become observable.")
  in
  let retries =
    Arg.(value & opt int 8 & info [ "retries" ] ~docv:"N"
           ~doc:"Backoff retries per request on a rejected response \
                 (exponential, full jitter, 25 ms base).")
  in
  let storm =
    Arg.(value & opt (some int) None & info [ "storm" ] ~docv:"SEED"
           ~doc:"Instead of a load ramp, run the seeded daemon_storm \
                 chaos drill against the daemon at --addr: hostile \
                 clients (malformed frames, oversized payloads, \
                 mid-frame disconnects, budget-tripping cones) plus a \
                 closing ledger-balance and liveness check.")
  in
  let doc = "load generator for the soimap mapping daemon" in
  Cmd.v
    (Cmd.info "soiload" ~doc)
    Term.(
      const main $ addr $ bench $ remap $ ramp $ requests $ timeout $ delay_ms
      $ retries $ storm)

let () = exit (Cmd.eval cmd)
