open Unate

(* Per-run statistics and JSON emission for the differential fuzzer.  The
   JSON is hand-assembled: the report schema is flat and small, and the
   repo deliberately avoids external dependencies. *)

type counterexample = {
  run : int;            (* 1-based index of the failing run *)
  net_seed : int;       (* Random_logic seed that rebuilds the network *)
  net_inputs : int;
  net_gates : int;
  net_outputs : int;
  oracle : string;      (* which oracle tripped: structure/bdd/eval/pbe/crash/frontend *)
  detail : string;
  cex_input : string option;   (* failing input assignment, LSB-first bits *)
  cex_output : string option;
  config : Gen_config.t;
  shrunk_nodes : int;
  shrunk_outputs : int;
  shrunk_config : Gen_config.t;
  shrunk_dump : string;        (* textual unate network, replayable by hand *)
  shrink_checks : int;
}

type timeout_run = {
  t_run : int;              (* 1-based absolute run index *)
  t_net_seed : int option;  (* generator seed, when generation completed *)
  t_reason : string;        (* which budget tripped, e.g. deadline(0.5s) *)
}

type slow_run = {
  s_run : int;        (* 1-based absolute run index *)
  s_seconds : float;
}

(* Per-run wall-clock accounting.  Machine- and load-dependent by
   nature, so it lives in an optional field of its own: deterministic
   report comparisons strip it ({!strip_timing}, the fuzz CLI's
   [--no-timing]). *)
type timing = {
  runs_timed : int;   (* merged runs the totals cover *)
  total_s : float;    (* summed per-run wall clock *)
  max_s : float;      (* slowest single run *)
  slow : slow_run list;  (* runs at or above the slow-run threshold *)
}

(* One proven DP suboptimality from the exact oracle: the cone, the two
   costs, and everything needed to rebuild the run that exposed it. *)
type opt_gap = {
  g_run : int;          (* 1-based run index *)
  g_net_seed : int;     (* Random_logic seed that rebuilds the network *)
  g_root : int;         (* unate node id of the cone's boundary *)
  g_output : string option;  (* a primary output it drives, if any *)
  g_dp : int;           (* the DP's cost key for the cone *)
  g_exact : int;        (* the proven optimum (g_exact < g_dp) *)
  g_config : Gen_config.t;
}

(* Aggregated fourth-oracle (exact-optimality) verdicts.  Every sampled
   cone lands in exactly one counter — proved, gap, bounded (budget
   exhausted with an honest interval) or skipped (size cap) — and
   trivial outputs are tallied too, so nothing is dropped silently. *)
type optimality = {
  o_cones : int;
  o_proved : int;
  o_gaps : int;
  o_bounded : int;
  o_skipped : int;
  o_trivial : int;       (* literal/constant outputs: nothing to map *)
  o_expansions : int;    (* total exact-search work, deterministic *)
  o_gap_list : opt_gap list;  (* first gaps in run order (capped) *)
}

let no_optimality =
  {
    o_cones = 0;
    o_proved = 0;
    o_gaps = 0;
    o_bounded = 0;
    o_skipped = 0;
    o_trivial = 0;
    o_expansions = 0;
    o_gap_list = [];
  }

(* Aggregated incremental-remap oracle verdicts.  Every passing run
   applies a seeded local edit ({!Edit}) and cross-checks a warm
   {!Mapper.Engine.remap} against a cold full map of the edited network,
   byte-comparing the circuit dumps.  Probe counts and re-priced node
   counts are pure functions of (params, run index), so the block is
   bit-identical at any worker count. *)
type remap = {
  r_probes : int;      (* passing runs that ran the warm/cold cross-check *)
  r_dirty : int;       (* nodes the remaps re-priced, summed over probes *)
  r_clean : int;       (* nodes the remaps reused, summed over probes *)
  r_mismatches : int;  (* probes where warm and cold circuits differed *)
}

let no_remap = { r_probes = 0; r_dirty = 0; r_clean = 0; r_mismatches = 0 }

type chaos_counts = {
  raises : int;    (* injected exceptions (the run is aborted, counted) *)
  delays : int;    (* injected sleeps (the run completes normally) *)
  exhausts : int;  (* injected budget exhaustions (recorded as timeouts) *)
}

let no_chaos = { raises = 0; delays = 0; exhausts = 0 }

type t = {
  seed : int;
  budget : int;
  runs : int;               (* runs actually executed (≤ budget) *)
  skipped : int;            (* generation attempts that produced no usable net *)
  eval_vectors : int;       (* total vectors through the bit-parallel oracle *)
  sim_cycles : int;         (* total cycles through the PBE simulator *)
  bdd_exact_runs : int;     (* runs where the BDD oracle completed exactly *)
  bdd_sampled_vectors : int;    (* vectors drawn by the sampled-equivalence
                                   fallback across all non-exact runs *)
  stripped_probes : int;    (* negative-oracle probes attempted *)
  stripped_event_probes : int;  (* probes where stripping produced PBE events *)
  timeouts : timeout_run list;  (* runs stopped by the per-run deadline *)
  timing : timing option;   (* wall-clock per-run durations; None when
                               stripped for deterministic comparison *)
  chaos : chaos_counts;     (* injected faults observed, by kind *)
  optimality : optimality option;  (* fourth-oracle verdicts; None when
                                      the exact oracle was not enabled *)
  remap : remap option;     (* incremental-remap oracle verdicts; None when
                               the remap leg was not enabled *)
  complete : bool;          (* false when the loop stopped early (failure or
                               generator exhaustion) and later outcomes were
                               discarded — accounting checks must skip *)
  counterexample : counterexample option;
}

let strip_timing r = { r with timing = None }

(* ---------------- textual network dump ---------------- *)

let fin_to_string u = function
  | Unetwork.F_const b -> if b then "1" else "0"
  | Unetwork.F_node i -> Printf.sprintf "n%d" i
  | Unetwork.F_lit { input; positive } ->
      Printf.sprintf "%s%s"
        (if positive then "" else "~")
        (Unetwork.inputs u).(input)

let dump_unetwork u =
  let b = Buffer.create 256 in
  Buffer.add_string b
    ("inputs " ^ String.concat " " (Array.to_list (Unetwork.inputs u)) ^ "\n");
  for i = 0 to Unetwork.node_count u - 1 do
    let nd = Unetwork.node u i in
    Buffer.add_string b
      (Printf.sprintf "n%d = %s %s %s\n" i
         (match nd.Unetwork.kind with Unetwork.U_and -> "and" | Unetwork.U_or -> "or")
         (fin_to_string u nd.Unetwork.fanin0)
         (fin_to_string u nd.Unetwork.fanin1))
  done;
  Array.iter
    (fun (nm, f) ->
      Buffer.add_string b (Printf.sprintf "output %s = %s\n" nm (fin_to_string u f)))
    (Unetwork.outputs u);
  Buffer.contents b

let bits_of_input input =
  String.init (Array.length input) (fun i -> if input.(i) then '1' else '0')

(* ---------------- JSON ---------------- *)

let json_str s = "\"" ^ Obs.Json.escape s ^ "\""

let json_opt = function None -> "null" | Some s -> json_str s

let json_of_config (c : Gen_config.t) =
  let open Mapper in
  Printf.sprintf
    "{\"style\": %s, \"w_max\": %d, \"h_max\": %d, \"cost\": %s, \
     \"both_orders\": %b, \"grounded_at_foot\": %b, \"pareto_width\": %d, \
     \"rearrange\": %b, \"rewrite\": %d}"
    (json_str (Gen_config.style_name c.Gen_config.opts.Engine.style))
    c.Gen_config.opts.Engine.w_max c.Gen_config.opts.Engine.h_max
    (json_str c.Gen_config.opts.Engine.cost.Cost.name)
    c.Gen_config.opts.Engine.both_orders
    c.Gen_config.opts.Engine.grounded_at_foot
    c.Gen_config.opts.Engine.pareto_width c.Gen_config.opts.Engine.rearrange
    c.Gen_config.rewrite

let json_of_counterexample cex =
  Printf.sprintf
    "{\"run\": %d, \"net_seed\": %d, \"net_inputs\": %d, \"net_gates\": %d, \
     \"net_outputs\": %d, \"oracle\": %s, \"detail\": %s, \"cex_input\": %s, \
     \"cex_output\": %s, \"config\": %s, \"shrunk_nodes\": %d, \
     \"shrunk_outputs\": %d, \"shrunk_config\": %s, \"shrink_checks\": %d, \
     \"shrunk_network\": %s}"
    cex.run cex.net_seed cex.net_inputs cex.net_gates cex.net_outputs
    (json_str cex.oracle) (json_str cex.detail) (json_opt cex.cex_input)
    (json_opt cex.cex_output)
    (json_of_config cex.config)
    cex.shrunk_nodes cex.shrunk_outputs
    (json_of_config cex.shrunk_config)
    cex.shrink_checks (json_str cex.shrunk_dump)

let json_of_opt_gap g =
  Printf.sprintf
    "{\"run\": %d, \"net_seed\": %d, \"cone\": %s, \"output\": %s, \
     \"dp_cost\": %d, \"exact_cost\": %d, \"config\": %s}"
    g.g_run g.g_net_seed
    (json_str (Printf.sprintf "n%d" g.g_root))
    (json_opt g.g_output) g.g_dp g.g_exact
    (json_of_config g.g_config)

let json_of_optimality o =
  Printf.sprintf
    "{\"cones\": %d, \"proved\": %d, \"gaps\": %d, \"bounded\": %d, \
     \"skipped\": %d, \"trivial_outputs\": %d, \"expansions\": %d, \
     \"gap_findings\": [%s]}"
    o.o_cones o.o_proved o.o_gaps o.o_bounded o.o_skipped o.o_trivial
    o.o_expansions
    (String.concat ", " (List.map json_of_opt_gap o.o_gap_list))

let json_of_remap m =
  Printf.sprintf
    "{\"probes\": %d, \"dirty_cones\": %d, \"clean_cones\": %d, \
     \"mismatches\": %d}"
    m.r_probes m.r_dirty m.r_clean m.r_mismatches

let json_of_timeout t =
  Printf.sprintf "{\"run\": %d, \"net_seed\": %s, \"reason\": %s}" t.t_run
    (match t.t_net_seed with None -> "null" | Some s -> string_of_int s)
    (json_str t.t_reason)

let json_of_slow s =
  Printf.sprintf "{\"run\": %d, \"seconds\": %.6f}" s.s_run s.s_seconds

let json_of_timing t =
  Printf.sprintf
    "{\"runs_timed\": %d, \"total_s\": %.6f, \"max_s\": %.6f, \"slow\": [%s]}"
    t.runs_timed t.total_s t.max_s
    (String.concat ", " (List.map json_of_slow t.slow))

let to_json r =
  Printf.sprintf
    "{\"seed\": %d, \"budget\": %d, \"runs\": %d, \"skipped\": %d, \
     \"eval_vectors\": %d, \"sim_cycles\": %d, \"bdd_exact_runs\": %d, \
     \"bdd_sampled_vectors\": %d, \
     \"stripped_probes\": %d, \"stripped_event_probes\": %d, \
     \"timeouts\": [%s], \
     \"timing\": %s, \
     \"chaos\": {\"raises\": %d, \"delays\": %d, \"exhausts\": %d}, \
     \"optimality\": %s, \
     \"remap\": %s, \
     \"complete\": %b, \
     \"counterexample\": %s}"
    r.seed r.budget r.runs r.skipped r.eval_vectors r.sim_cycles
    r.bdd_exact_runs r.bdd_sampled_vectors r.stripped_probes
    r.stripped_event_probes
    (String.concat ", " (List.map json_of_timeout r.timeouts))
    (match r.timing with None -> "null" | Some t -> json_of_timing t)
    r.chaos.raises r.chaos.delays r.chaos.exhausts
    (match r.optimality with
    | None -> "null"
    | Some o -> json_of_optimality o)
    (match r.remap with None -> "null" | Some m -> json_of_remap m)
    r.complete
    (match r.counterexample with
    | None -> "null"
    | Some cex -> json_of_counterexample cex)

(* The report with an {!Obs.Metrics} snapshot spliced into the top
   level; the fuzz CLI uses it when collection is enabled. *)
let to_json_with_metrics metrics r =
  let base = to_json r in
  let items =
    List.map (fun (n, v) -> Printf.sprintf "%s: %d" (json_str n) v) metrics
  in
  String.sub base 0 (String.length base - 1)
  ^ Printf.sprintf ", \"metrics\": {%s}}" (String.concat ", " items)

let pp_human fmt r =
  Format.fprintf fmt
    "fuzz: seed=%d budget=%d runs=%d skipped=%d@,\
    \  oracles: %d eval vectors, %d sim cycles, %d/%d runs BDD-exact@,\
    \  negative oracle: %d/%d stripped probes exhibited PBE@,"
    r.seed r.budget r.runs r.skipped r.eval_vectors r.sim_cycles
    r.bdd_exact_runs r.runs r.stripped_event_probes r.stripped_probes;
  if r.bdd_sampled_vectors > 0 then
    Format.fprintf fmt "  sampled-equivalence fallback: %d vectors@,"
      r.bdd_sampled_vectors;
  if r.timeouts <> [] then begin
    Format.fprintf fmt "  %d run(s) hit the per-run deadline:@,"
      (List.length r.timeouts);
    List.iter
      (fun t ->
        Format.fprintf fmt "    run %d (%s): net_seed=%s@," t.t_run t.t_reason
          (match t.t_net_seed with
          | None -> "unknown"
          | Some s -> string_of_int s))
      r.timeouts
  end;
  (match r.timing with
  | Some t when t.runs_timed > 0 ->
      Format.fprintf fmt "  timing: %.2fs total, %.3fs max over %d run(s)@,"
        t.total_s t.max_s t.runs_timed;
      List.iter
        (fun s ->
          Format.fprintf fmt "    slow run %d: %.3fs@," s.s_run s.s_seconds)
        t.slow
  | _ -> ());
  if r.chaos <> no_chaos then
    Format.fprintf fmt
      "  chaos: %d raises, %d delays, %d exhausts injected@,"
      r.chaos.raises r.chaos.delays r.chaos.exhausts;
  (match r.optimality with
  | None -> ()
  | Some o ->
      Format.fprintf fmt
        "  exact oracle: %d cones — %d proved, %d gaps, %d bounded, %d \
         skipped (%d trivial outputs, %d expansions)@,"
        o.o_cones o.o_proved o.o_gaps o.o_bounded o.o_skipped o.o_trivial
        o.o_expansions;
      List.iter
        (fun g ->
          Format.fprintf fmt
            "    GAP run %d net_seed=%d cone=n%d%s: dp=%d exact=%d under %s@,"
            g.g_run g.g_net_seed g.g_root
            (match g.g_output with None -> "" | Some o -> " (" ^ o ^ ")")
            g.g_dp g.g_exact
            (Gen_config.describe g.g_config))
        o.o_gap_list);
  (match r.remap with
  | None -> ()
  | Some m ->
      Format.fprintf fmt
        "  remap oracle: %d probes — %d re-priced / %d reused nodes, %d \
         mismatches@,"
        m.r_probes m.r_dirty m.r_clean m.r_mismatches);
  if not r.complete then
    Format.fprintf fmt "  (stopped early; later runs were not executed)@,";
  match r.counterexample with
  | None -> Format.fprintf fmt "  no counterexample found@,"
  | Some cex ->
      Format.fprintf fmt
        "  COUNTEREXAMPLE at run %d (oracle %s): %s@,\
        \  network: seed=%d inputs=%d gates=%d outputs=%d@,\
        \  config: %s@,\
        \  shrunk to %d nodes, %d outputs under %s (%d shrink checks)@,%s"
        cex.run cex.oracle cex.detail cex.net_seed cex.net_inputs cex.net_gates
        cex.net_outputs
        (Gen_config.describe cex.config)
        cex.shrunk_nodes cex.shrunk_outputs
        (Gen_config.describe cex.shrunk_config)
        cex.shrink_checks cex.shrunk_dump
