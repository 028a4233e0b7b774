open Unate

(* The differential fuzz loop: generate a random multi-level network,
   unate-decompose it, sample a mapper configuration, and drive the
   mapped circuit through all three oracles.  The first failure is
   shrunk to a minimal counterexample and reported.

   Every run draws all of its randomness from its own generator,
   [Rng.stream seed i], so run [i] is a pure function of [(params, i)].
   That makes the budget embarrassingly parallel: runs are executed in
   chunks on the default {!Parallel.Pool} and merged back in run order,
   and the report — runs, skips, oracle totals, the counterexample and
   its shrink — is bit-identical at any worker count.  Everything is
   deterministic in [params.seed].

   Two opt-in knobs bend that contract deliberately:
   [run_timeout] imposes a per-run wall-clock deadline, so a pathological
   run is recorded as a timeout in the report (with the seed that
   rebuilds it) instead of wedging the pool — by nature wall-clock
   verdicts can differ between machines, though not between worker
   counts on the same hardware unless the load differs.  [chaos] injects
   seeded faults (raise, delay, budget exhaustion) at the run and oracle
   stage boundaries; decisions are a pure hash of (chaos seed, site, run
   index), so injected faults are the same at any [-j]. *)

(* Fourth-oracle (exact-optimality) settings.  Both caps are counted in
   deterministic units — cone interior nodes and search expansions —
   never wall-clock, so the optimality block is [-j]-invariant. *)
type exact_params = {
  ex_max_size : int;        (* certify cones up to this interior size *)
  ex_max_expansions : int;  (* per-cone exact-search budget *)
}

let default_exact =
  {
    ex_max_size = Opt.Certify.default_max_size;
    ex_max_expansions = Opt.Certify.default_max_expansions;
  }

type params = {
  seed : int;
  budget : int;       (* number of (network, configuration) runs *)
  max_nodes : int;    (* reject generated unate networks larger than this *)
  eval_vectors : int; (* per-run budget of the bit-parallel oracle *)
  sim_pairs : int;    (* per-run hold/strike pairs for the PBE oracle *)
  shrink_checks : int;
  exact : exact_params option;  (* exact-optimality oracle (default off) *)
  rewrite : int;  (* rewrite-portfolio cap applied to every run's config
                     (0 = front end off); the exact oracle then
                     certifies the network the portfolio chose *)
  remap : bool;   (* incremental-remap oracle: every passing run applies
                     a seeded local edit and cross-checks a warm
                     [Engine.remap] against a cold full map, byte for
                     byte (default off) *)
  run_timeout : float option;  (* per-run wall-clock deadline, seconds *)
  slow_run_s : float; (* runs at or above this duration are listed
                         individually in the report's timing block *)
  chaos : Resilience.Chaos.t;  (* seeded fault injection (default off) *)
  log : string -> unit;
  on_progress : Report.t -> unit;
      (* called with a partial report after each merged chunk; the
         SIGINT handlers use it to flush what was already measured *)
}

let default_params =
  {
    seed = 1;
    budget = 100;
    max_nodes = 400;
    eval_vectors = 1024;
    sim_pairs = 16;
    shrink_checks = 2_000;
    exact = None;
    rewrite = 0;
    remap = false;
    run_timeout = None;
    slow_run_s = 1.0;
    chaos = Resilience.Chaos.disabled;
    log = ignore;
    on_progress = ignore;
  }

(* Fuzzer observability.  The per-run latency histogram is wall-clock
   and chunk-dependent (discarded-past-stop runs still execute and
   observe), so it is registered unstable. *)
let h_run_ms =
  Obs.Metrics.histogram ~stable:false
    ~buckets:[| 1; 2; 5; 10; 20; 50; 100; 200; 500; 1000; 2000; 5000 |]
    "fuzz.run_ms"

type net_shape = {
  ns_seed : int;
  ns_inputs : int;
  ns_gates : int;
  ns_outputs : int;
}

(* Fully-folded networks (zero nodes, outputs reduced to literals or
   constants) are mappable too — the engine ties constant outputs to the
   rail — so the only rejects are oversized networks. *)
let usable u max_nodes = Unetwork.node_count u <= max_nodes && Shrink.valid u

(* Draw generator parameters until decomposition yields a mappable
   network; the source network comes back with its unate form.  Returns
   the attempts burned so the report can count them. *)
let gen_unetwork rng max_nodes =
  let rec attempt burned tries =
    if tries = 0 then (None, burned)
    else begin
      let open Logic in
      let shape =
        {
          ns_seed = Rng.int rng 1_000_000;
          ns_inputs = Rng.int_in rng 4 9;
          ns_gates = Rng.int_in rng 6 40;
          ns_outputs = Rng.int_in rng 1 4;
        }
      in
      let net =
        Gen.Random_logic.generate
          (Gen.Random_logic.default
             ~name:(Printf.sprintf "fuzz%d" shape.ns_seed)
             ~inputs:shape.ns_inputs ~gates:shape.ns_gates
             ~outputs:shape.ns_outputs ~seed:shape.ns_seed)
      in
      let u = Mapper.Algorithms.prepare net in
      if usable u max_nodes then (Some (u, shape, net), burned)
      else attempt (burned + 1) (tries - 1)
    end
  in
  attempt 0 8

(* Everything one run produces.  Computed without touching shared state
   so runs can execute on any domain; outcomes are merged in run order,
   which restores the serial semantics exactly. *)
type outcome =
  | O_exhausted of int  (* generator gave up; burned attempts *)
  | O_pass of {
      burned : int;
      stats : Oracle.stats;
      (* material for the capped negative-oracle probe, which stays
         serial in the merge phase so its run-order budget of 32 probes
         is independent of the worker count *)
      circuit : Domino.Circuit.t;
      oracle_seed : int;
      shape : net_shape;
      config : Gen_config.t;
      (* fourth-oracle verdicts for this run's cones, when enabled *)
      optimality : Opt.Certify.summary option;
      (* incremental-remap probe verdict for this run, when enabled *)
      remap : Report.remap option;
    }
  | O_fail of {
      burned : int;
      shape : net_shape;
      u : Unetwork.t;
      cfg : Gen_config.t;
      oracle_seed : int;
      failure : Oracle.failure;
    }
  | O_timeout of {
      burned : int;
      net_seed : int option;  (* known once generation completed *)
      reason : string;
    }
  | O_aborted of { site : string }  (* run killed by an injected raise *)

(* One run's outcome plus every chaos fault that fired during it, in
   firing order, so the merge phase can account for all of them —
   delays included — without any order-dependent global counter. *)
type run_result = {
  faults : (string * Resilience.Chaos.fault) list;  (* (site, fault) *)
  seconds : float;  (* wall-clock duration of this run *)
  outcome : outcome;
}

(* Run [i] of the budget: a pure function of [(params, i)] — modulo the
   wall clock when [run_timeout] is set, and the sleep of an injected
   delay. *)
let exec_run params i =
  let t0 = Obs.Clock.now_ns () in
  let faults = ref [] in
  let note site f = faults := (site, f) :: !faults in
  let inject = Resilience.Chaos.point_for params.chaos ~note ~salt:i () in
  let budget =
    match params.run_timeout with
    | None -> Resilience.Budget.unlimited
    | Some s -> Resilience.Budget.make ~timeout:s ()
  in
  let outcome =
    Obs.Trace.with_span ~cat:"fuzz" "fuzz.run"
      ~args:(fun () -> [ ("run", string_of_int (i + 1)) ])
    @@ fun () ->
    try
      inject ~site:"fuzz.run";
      let rng = Logic.Rng.stream (params.seed lxor 0xF022) i in
      let candidate, burned = gen_unetwork rng params.max_nodes in
      match candidate with
      | None -> O_exhausted burned
      | Some (u, shape, net) -> (
          let cfg =
            { (Gen_config.sample rng) with Gen_config.rewrite = params.rewrite }
          in
          let oracle_seed = Logic.Rng.int rng 0x3FFFFFFF in
          match Oracle.check_frontend ~net_seed:shape.ns_seed net u with
          | Some failure -> O_fail { burned; shape; u; cfg; oracle_seed; failure }
          | None -> (
          (* Per-run memo table: the run stays a pure function of
             [(params, i)], so reports are [-j]-invariant; the rebuild
             of a passing circuit below is then a pure cache hit. *)
          let memo = Mapper.Memo.create ~shards:1 () in
          match
            Oracle.check ~eval_vectors:params.eval_vectors
              ~sim_pairs:params.sim_pairs ~seed:oracle_seed ~budget ~inject
              ~memo u cfg
          with
          | Oracle.Pass stats ->
              let optimality =
                match params.exact with
                | None -> None
                | Some ex ->
                    inject ~site:"fuzz.exact";
                    (* Certify the network the DP actually mapped: the
                       portfolio's winner under --rewrite, [u] itself
                       otherwise.  The salt keys the rerun into the
                       same memo entries the winner was priced with. *)
                    let target = Oracle.chosen_network ~budget ~memo u cfg in
                    let memo_salt =
                      if cfg.Gen_config.rewrite > 0 then
                        Mapper.Restructure.salt_of
                          ~limit:cfg.Gen_config.rewrite
                      else 0
                    in
                    Some
                      (Opt.Certify.certify ~max_size:ex.ex_max_size
                         ~max_expansions:ex.ex_max_expansions ~memo ~memo_salt
                         ~options:cfg.Gen_config.opts target)
              in
              let remap =
                if not params.remap then None
                else begin
                  inject ~site:"fuzz.remap";
                  (* Warm-vs-cold cross-check on a seeded local edit.
                     Everything — the edit, the re-priced counts,
                     the two circuits — is a pure function of
                     [(params, i)], so the block stays [-j]-invariant.
                     The probe gets its own memo: the run's table
                     already holds this network's cones, which would
                     make the "cold" side warm. *)
                  let edit_seed = Logic.Rng.int rng 0x3FFFFFFF in
                  let u1 = Edit.apply ~seed:edit_seed u in
                  let opts = cfg.Gen_config.opts in
                  let probe_memo = Mapper.Memo.create ~shards:1 () in
                  let st, _ =
                    Mapper.Engine.remap_init ~budget ~memo:probe_memo opts u
                  in
                  let warm_c, _, info = Mapper.Engine.remap ~budget st u1 in
                  let cold_c, _ = Mapper.Engine.map ~budget opts u1 in
                  Some
                    {
                      Report.r_probes = 1;
                      r_dirty = info.Mapper.Engine.dirty_cones;
                      r_clean = info.Mapper.Engine.clean_cones;
                      r_mismatches =
                        (if
                           Domino.Circuit.dump warm_c
                           <> Domino.Circuit.dump cold_c
                         then 1
                         else 0);
                    }
                end
              in
              O_pass
                {
                  burned;
                  stats;
                  circuit = Oracle.build ~memo u cfg;
                  oracle_seed;
                  shape;
                  config = cfg;
                  optimality;
                  remap;
                }
          | Oracle.Fail failure ->
              O_fail { burned; shape; u; cfg; oracle_seed; failure }
          | exception Resilience.Budget.Exhausted reason ->
              O_timeout
                {
                  burned;
                  net_seed = Some shape.ns_seed;
                  reason = Resilience.Budget.reason_to_string reason;
                }))
    with
    | Resilience.Budget.Exhausted reason ->
        O_timeout
          { burned = 0; net_seed = None;
            reason = Resilience.Budget.reason_to_string reason }
    | Resilience.Chaos.Injected (site, _) -> O_aborted { site }
  in
  let seconds = Obs.Clock.ns_to_s (Int64.sub (Obs.Clock.now_ns ()) t0) in
  Obs.Metrics.observe h_run_ms (int_of_float (seconds *. 1000.));
  { faults = List.rev !faults; seconds; outcome }

let run params =
  let pool = Parallel.Pool.default () in
  let runs = ref 0 and skipped = ref 0 in
  let eval_vectors = ref 0 and sim_cycles = ref 0 in
  let bdd_exact_runs = ref 0 and bdd_sampled_vectors = ref 0 in
  let stripped_probes = ref 0 and stripped_event_probes = ref 0 in
  let timeouts = ref [] in
  let total_s = ref 0. and max_s = ref 0. and runs_timed = ref 0 in
  let slow = ref [] in
  let chaos_raises = ref 0 and chaos_delays = ref 0 and chaos_exhausts = ref 0 in
  (* Fourth-oracle ledger.  Counts are exhaustive (every cone lands in
     exactly one bucket); the gap list is capped for report size, with
     [o_gaps] still carrying the full count. *)
  let max_gap_findings = 100 in
  let opt_cones = ref 0 and opt_proved = ref 0 and opt_gaps = ref 0 in
  let opt_bounded = ref 0 and opt_skipped = ref 0 and opt_trivial = ref 0 in
  let opt_expansions = ref 0 in
  let opt_gap_list = ref [] (* reversed; merged in run order *) in
  let merge_optimality ~run ~net_seed ~config (s : Opt.Certify.summary) =
    opt_cones := !opt_cones + s.Opt.Certify.cones;
    opt_proved := !opt_proved + s.Opt.Certify.proved;
    opt_gaps := !opt_gaps + s.Opt.Certify.gaps;
    opt_bounded := !opt_bounded + s.Opt.Certify.bounded;
    opt_skipped := !opt_skipped + s.Opt.Certify.skipped;
    opt_trivial := !opt_trivial + s.Opt.Certify.trivial_outputs;
    opt_expansions := !opt_expansions + s.Opt.Certify.expansions;
    List.iter
      (fun (c : Opt.Certify.cert) ->
        match c.Opt.Certify.status with
        | Opt.Certify.Gap { dp; exact }
          when List.length !opt_gap_list < max_gap_findings ->
            opt_gap_list :=
              {
                Report.g_run = run;
                g_net_seed = net_seed;
                g_root = c.Opt.Certify.root;
                g_output =
                  (match c.Opt.Certify.outputs with
                  | [] -> None
                  | o :: _ -> Some o);
                g_dp = dp;
                g_exact = exact;
                g_config = config;
              }
              :: !opt_gap_list
        | _ -> ())
      s.Opt.Certify.certs
  in
  (* Incremental-remap oracle ledger: per-probe verdicts summed in run
     order. *)
  let remap_acc = ref Report.no_remap in
  let merge_remap (m : Report.remap) =
    let a = !remap_acc in
    remap_acc :=
      {
        Report.r_probes = a.Report.r_probes + m.Report.r_probes;
        r_dirty = a.Report.r_dirty + m.Report.r_dirty;
        r_clean = a.Report.r_clean + m.Report.r_clean;
        r_mismatches = a.Report.r_mismatches + m.Report.r_mismatches;
      }
  in
  let first_failure = ref None in
  let stopped = ref false in
  let snapshot ~complete counterexample =
    {
      Report.seed = params.seed;
      budget = params.budget;
      runs = !runs;
      skipped = !skipped;
      eval_vectors = !eval_vectors;
      sim_cycles = !sim_cycles;
      bdd_exact_runs = !bdd_exact_runs;
      bdd_sampled_vectors = !bdd_sampled_vectors;
      stripped_probes = !stripped_probes;
      stripped_event_probes = !stripped_event_probes;
      timeouts = List.rev !timeouts;
      timing =
        Some
          {
            Report.runs_timed = !runs_timed;
            total_s = !total_s;
            max_s = !max_s;
            slow = List.rev !slow;
          };
      chaos =
        {
          Report.raises = !chaos_raises;
          delays = !chaos_delays;
          exhausts = !chaos_exhausts;
        };
      optimality =
        (match params.exact with
        | None -> None
        | Some _ ->
            Some
              {
                Report.o_cones = !opt_cones;
                o_proved = !opt_proved;
                o_gaps = !opt_gaps;
                o_bounded = !opt_bounded;
                o_skipped = !opt_skipped;
                o_trivial = !opt_trivial;
                o_expansions = !opt_expansions;
                o_gap_list = List.rev !opt_gap_list;
              });
      remap = (if params.remap then Some !remap_acc else None);
      complete;
      counterexample;
    }
  in
  (* Chunks bound how far past a failure (or generator exhaustion) we
     compute; outcomes past the stop point are discarded unmerged, so
     the report does not depend on the chunk size or worker count. *)
  let chunk_size = max 1 (4 * Parallel.Pool.jobs pool) in
  let base = ref 0 in
  while (not !stopped) && !base < params.budget do
    let n = min chunk_size (params.budget - !base) in
    let results =
      Parallel.Pool.map pool (exec_run params)
        (Array.init n (fun k -> !base + k))
    in
    Array.iteri
      (fun k { faults; seconds; outcome } ->
        if not !stopped then begin
          (* Timing follows the merge semantics: discarded-past-stop
             outcomes are not accounted, so the counts the timing block
             covers match the rest of the report. *)
          total_s := !total_s +. seconds;
          if seconds > !max_s then max_s := seconds;
          incr runs_timed;
          if seconds >= params.slow_run_s then
            slow :=
              { Report.s_run = !base + k + 1; s_seconds = seconds } :: !slow;
          List.iter
            (fun (_site, fault) ->
              match fault with
              | Resilience.Chaos.Raise -> incr chaos_raises
              | Resilience.Chaos.Delay -> incr chaos_delays
              | Resilience.Chaos.Exhaust -> incr chaos_exhausts)
            faults;
          match outcome with
          | O_exhausted burned ->
              (* generator gave up; report honest counts *)
              skipped := !skipped + burned;
              stopped := true
          | O_pass { burned; stats; circuit; oracle_seed; shape; config;
                     optimality; remap } ->
              skipped := !skipped + burned;
              incr runs;
              (match optimality with
              | None -> ()
              | Some s ->
                  merge_optimality ~run:!runs ~net_seed:shape.ns_seed ~config
                    s);
              (match remap with None -> () | Some m -> merge_remap m);
              eval_vectors := !eval_vectors + stats.Oracle.eval_vectors;
              sim_cycles := !sim_cycles + stats.Oracle.sim_cycles;
              if stats.Oracle.bdd_exact then incr bdd_exact_runs
              else
                bdd_sampled_vectors :=
                  !bdd_sampled_vectors + stats.Oracle.bdd_sampled_vectors;
              (* Negative oracle: stripping protection from a mapping
                 that carries discharge transistors should eventually
                 fire PBE events somewhere across the run. *)
              if
                (Domino.Circuit.counts circuit).Domino.Circuit.t_disch > 0
                && !stripped_probes < 32
              then begin
                incr stripped_probes;
                if
                  Oracle.stripped_events ~sim_pairs:params.sim_pairs
                    ~seed:oracle_seed circuit
                  > 0
                then incr stripped_event_probes
              end
          | O_fail { burned; shape; u; cfg; oracle_seed; failure = f } ->
              skipped := !skipped + burned;
              incr runs;
              first_failure := Some (!runs, shape, u, cfg, oracle_seed, f);
              stopped := true
          | O_timeout { burned; net_seed; reason } ->
              (* The run is recorded, with the seed that rebuilds its
                 network, and the loop carries on: a deadline is a
                 resource verdict, not a correctness one. *)
              skipped := !skipped + burned;
              timeouts :=
                { Report.t_run = !base + k + 1; t_net_seed = net_seed;
                  t_reason = reason }
                :: !timeouts
          | O_aborted { site = _ } ->
              (* Killed by an injected raise; the fault itself was
                 already counted from [faults]. *)
              ()
        end)
      results;
    base := !base + n;
    if not !stopped then params.on_progress (snapshot ~complete:false None)
  done;
  (* Shrinking stays serial: it is a greedy fixpoint over oracle calls
     seeded by the failing run, already deterministic. *)
  let counterexample =
    match !first_failure with
    | None -> None
    | Some (run, shape, u, cfg, oracle_seed, f) ->
        params.log
          (Printf.sprintf "run %d FAILED (%s): %s — shrinking" run
             (Oracle.kind_name f.Oracle.kind)
             f.Oracle.detail);
        (* One memo table across the serial shrink phase: candidate
           networks share most of their structure with the original, so
           the repeated oracle rebuilds are mostly hits; exactness keeps
           the shrink trajectory identical to an uncached one. *)
        let memo = Mapper.Memo.create ~shards:1 () in
        let check u' cfg' =
          Oracle.check ~eval_vectors:params.eval_vectors
            ~sim_pairs:params.sim_pairs ~seed:oracle_seed ~memo u' cfg'
        in
        let fails u' cfg' =
          match check u' cfg' with
          | Oracle.Fail f' -> f'.Oracle.kind = f.Oracle.kind
          | Oracle.Pass _ -> false
        in
        (* A front-end failure is not shrunk: the shrinker edits unate
           networks, and this failure lives in the source network the
           net seed rebuilds. *)
        let shrunk =
          if f.Oracle.kind = Oracle.Frontend then { Shrink.u; cfg; checks = 0 }
          else
            Obs.Trace.with_span ~cat:"fuzz" "fuzz.shrink" (fun () ->
                Shrink.minimize ~max_checks:params.shrink_checks ~fails u cfg)
        in
        (* Re-run the shrunk pair to report its (possibly sharper)
           failure detail. *)
        let detail, cex_input, cex_output =
          match
            if f.Oracle.kind = Oracle.Frontend then Oracle.Fail f
            else check shrunk.Shrink.u shrunk.Shrink.cfg
          with
          | Oracle.Fail f' ->
              (f'.Oracle.detail, f'.Oracle.cex_input, f'.Oracle.cex_output)
          | Oracle.Pass _ ->
              (f.Oracle.detail, f.Oracle.cex_input, f.Oracle.cex_output)
        in
        Some
          {
            Report.run;
            net_seed = shape.ns_seed;
            net_inputs = shape.ns_inputs;
            net_gates = shape.ns_gates;
            net_outputs = shape.ns_outputs;
            oracle = Oracle.kind_name f.Oracle.kind;
            detail;
            cex_input = Option.map Report.bits_of_input cex_input;
            cex_output;
            config = cfg;
            shrunk_nodes = Unetwork.node_count shrunk.Shrink.u;
            shrunk_outputs = Array.length (Unetwork.outputs shrunk.Shrink.u);
            shrunk_config = shrunk.Shrink.cfg;
            shrunk_dump = Report.dump_unetwork shrunk.Shrink.u;
            shrink_checks = shrunk.Shrink.checks;
          }
  in
  snapshot ~complete:(not !stopped) counterexample
