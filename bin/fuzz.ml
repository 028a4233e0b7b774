(* fuzz: differential verification of the mapper.

   Randomly generated networks are mapped under randomly sampled engine
   configurations and cross-checked against three independent oracles
   (BDD equivalence, bit-parallel evaluation, the switch-level PBE
   simulator).  The first failure is shrunk to a minimal counterexample.
   --exact-oracle adds a fourth: every mapped cone is re-solved to
   proven optimality and DP/exact gaps are recorded as findings.
   --remap adds a fifth leg: every passing run applies a seeded local
   edit and byte-compares a warm incremental remap against a cold map.

   Examples:
     fuzz --seed 1 --budget 200
     fuzz --seed 7 -n 500 --max-nodes 200 --json > report.json
     fuzz --seed 7 -n 200 --exact-oracle # certify DP optimality per cone
     fuzz --seed 3 -n 100 --remap        # warm-vs-cold remap cross-check
     fuzz --chaos 42 -n 20 -j 2          # fault-injection smoke
     fuzz --run-timeout 0.5 -n 100       # slow runs become report timeouts

   Exit codes: 0 clean, 1 counterexample or remap mismatch, 2 usage,
   3 chaos-accounting mismatch, 130 interrupted. *)

open Cmdliner

let run jobs seed budget max_nodes eval_vectors sim_pairs rewrite remap json
    verbose run_timeout chaos_seed trace no_timing exact_oracle exact_max_cone
    exact_expansions =
  if jobs < 0 then begin
    prerr_endline "--jobs must be non-negative (0 = number of cores)";
    exit 2
  end;
  let rewrite =
    match rewrite with
    | None -> 0
    | Some n when n >= 1 -> n
    | Some _ ->
        prerr_endline "--rewrite needs a positive variant count";
        exit 2
  in
  Parallel.Pool.set_jobs jobs;
  let trace =
    match trace with Some _ -> trace | None -> Sys.getenv_opt "SOIMAP_TRACE"
  in
  if trace <> None then begin
    Obs.Trace.set_enabled true;
    Obs.Metrics.set_enabled true
  end;
  let chaos =
    match chaos_seed with
    | None -> Resilience.Chaos.disabled
    | Some seed -> Resilience.Chaos.make ~seed ()
  in
  let print_report r =
    let r = if no_timing then Check.Report.strip_timing r else r in
    if json then
      print_endline
        (if Obs.Metrics.enabled () then
           Check.Report.to_json_with_metrics (Obs.Metrics.snapshot ()) r
         else Check.Report.to_json r)
    else Format.printf "@[<v>%a@]@." Check.Report.pp_human r
  in
  (* The fuzz loop publishes a snapshot after every merged chunk; ^C
     flushes the latest one (marked incomplete) instead of losing the
     whole session.  OCaml runs the handler at a safepoint, so printing
     here is safe. *)
  let partial = ref None in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         (match !partial with
         | None -> prerr_endline "fuzz: interrupted before the first run"
         | Some r ->
             prerr_endline "fuzz: interrupted; flushing partial report";
             print_report r);
         flush stdout;
         exit 130));
  let params =
    {
      Check.Fuzz.default_params with
      Check.Fuzz.seed;
      budget;
      max_nodes;
      eval_vectors;
      sim_pairs;
      rewrite;
      remap;
      exact =
        (if exact_oracle then
           Some
             {
               Check.Fuzz.ex_max_size = exact_max_cone;
               ex_max_expansions = exact_expansions;
             }
         else None);
      run_timeout;
      chaos;
      on_progress = (fun r -> partial := Some r);
      log = (if verbose && not json then prerr_endline else ignore);
    }
  in
  let report = Check.Fuzz.run params in
  print_report report;
  (match trace with
  | Some path ->
      Obs.Trace.write_file path;
      Printf.eprintf "fuzz: wrote trace (%d events) to %s\n"
        (Obs.Trace.event_count ()) path
  | None -> ());
  let remap_mismatches =
    match report.Check.Report.remap with
    | Some m -> m.Check.Report.r_mismatches
    | None -> 0
  in
  match report.Check.Report.counterexample with
  | Some _ -> 1
  | None when remap_mismatches > 0 ->
      Printf.eprintf "fuzz: %d remap mismatch(es) — warm != cold\n"
        remap_mismatches;
      1
  | None -> (
      (* Self-check the chaos ledger: a clean complete run must account
         for every injected fault in its report. *)
      match Check.Chaos.verify_accounting chaos report with
      | Ok _ -> 0
      | Error msg ->
          prerr_endline ("fuzz: " ^ msg);
          3)

let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker-domain pool size.  Each run draws its randomness from \
              its own per-run seed stream, so the report is bit-identical \
              at any $(docv); 0 uses the number of cores.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Master random seed.")

let budget =
  Arg.(
    value & opt int 100
    & info [ "budget"; "n" ] ~docv:"N"
        ~doc:"Number of (network, configuration) runs to execute.")

let max_nodes =
  Arg.(
    value & opt int 400
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:"Reject generated unate networks larger than $(docv) nodes.")

let eval_vectors =
  Arg.(
    value & opt int 1024
    & info [ "eval-vectors" ] ~docv:"N"
        ~doc:"Input vectors per run for the bit-parallel oracle.")

let sim_pairs =
  Arg.(
    value & opt int 16
    & info [ "sim-pairs" ] ~docv:"N"
        ~doc:"Hold/strike stimulus pairs per run for the PBE oracle.")

let rewrite =
  Arg.(
    value
    & opt ~vopt:(Some 8) (some int) None
    & info [ "rewrite" ] ~docv:"N"
        ~doc:"Route every run through the choice-aware rewriting front \
              end with up to $(docv) variants (default 8 when given \
              bare).  The oracles still compare against the original \
              network, so a clean session certifies the rewriting layer \
              end to end; with --exact-oracle the certifier runs on the \
              portfolio's chosen variant under the matching memo salt.")

let remap =
  Arg.(
    value & flag
    & info [ "remap" ]
        ~doc:"Enable the incremental-remap leg: every passing run applies \
              a seeded local edit to its network and byte-compares a warm \
              $(b,Engine.remap) (re-pricing only the memo misses over \
              a retained memo) against a cold full map of the edited \
              network.  Probe verdicts land in the report's remap block, \
              which is bit-identical at any --jobs value; any mismatch \
              makes the exit status 1.")

let json =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the report as JSON on standard output.")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log failures as they occur.")

let run_timeout =
  Arg.(
    value & opt (some float) None
    & info [ "run-timeout" ] ~docv:"SEC"
        ~doc:"Per-run wall-clock deadline.  A run that exceeds it is \
              recorded in the report's timeout list (with the offending \
              network seed) and the session continues.")

let chaos_seed =
  Arg.(
    value & opt (some int) None
    & info [ "chaos" ] ~docv:"SEED"
        ~doc:"Enable seeded fault injection: runs and oracle stages \
              randomly raise, stall, or exhaust their budget.  The exit \
              status checks that every injected fault is accounted for in \
              the report.")

let trace =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record spans of the fuzz session (per-run, shrink, pool \
              drains) and write Chrome trace-event JSON; also folds a \
              metrics snapshot into the --json report.  Defaults to the \
              SOIMAP_TRACE environment variable when set.")

let no_timing =
  Arg.(
    value & flag
    & info [ "no-timing" ]
        ~doc:"Omit the wall-clock timing block from the report, leaving \
              only fields that are bit-identical at any --jobs value.")

let exact_oracle =
  Arg.(
    value & flag
    & info [ "exact-oracle" ]
        ~doc:"Enable the fourth oracle: on every passing run, solve each \
              mapped cone to proven optimality (branch-and-bound over the \
              DP's tuple space) and record proved/gap/bounded/skipped \
              verdicts in the report's optimality block.  A proven gap is \
              a finding, not a failure: the session continues and the \
              exit status is unchanged.  Budgeted in deterministic \
              expansion counts, so the block is bit-identical at any \
              --jobs value.")

let exact_max_cone =
  Arg.(
    value & opt int Opt.Certify.default_max_size
    & info [ "exact-max-cone" ] ~docv:"N"
        ~doc:"Exact-oracle cone size cap: cones with more than $(docv) \
              interior nodes are counted as skipped.")

let exact_expansions =
  Arg.(
    value & opt int Opt.Certify.default_max_expansions
    & info [ "exact-expansions" ] ~docv:"N"
        ~doc:"Exact-oracle per-cone search budget; an exhausted cone \
              degrades to an honest bounded verdict.")

let cmd =
  let doc = "differential fuzzing of the SOI domino mapper" in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ jobs $ seed $ budget $ max_nodes $ eval_vectors $ sim_pairs
      $ rewrite $ remap $ json $ verbose $ run_timeout $ chaos_seed $ trace
      $ no_timing $ exact_oracle $ exact_max_cone $ exact_expansions)

let () = exit (Cmd.eval' cmd)
