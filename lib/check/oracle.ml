open Mapper
open Domino

(* Cross-checks one mapped circuit against three independent oracles:

     1. BDD equivalence ([Logic.Equiv]) on the network reconstructed from
        the domino circuit, with a Monte-Carlo fallback ([Logic.Eval])
        when the BDD node limit is hit;
     2. bit-parallel evaluation: [Circuit.eval64] against
        [Unetwork.eval64] on random 64-wide vectors — a code path that
        shares nothing with the BDD reconstruction;
     3. the switch-level PBE simulator ([Sim.Domino_sim]): a properly
        discharged mapping must produce zero parasitic-bipolar events and
        zero corrupted cycles under body-charging hold/strike stimulus.

   Structural validation and mapper crashes are reported as their own
   failure kinds so the shrinker can preserve them.  The front end — BLIF
   reading and writing, and the preparation of the unate network the
   oracles above start from — has its own check and kind. *)

type kind = Structure | Bdd | Eval | Pbe | Crash | Frontend

let kind_name = function
  | Structure -> "structure"
  | Bdd -> "bdd"
  | Eval -> "eval"
  | Pbe -> "pbe"
  | Crash -> "crash"
  | Frontend -> "frontend"

type failure = {
  kind : kind;
  detail : string;
  cex_input : bool array option;  (* concrete input assignment, if known *)
  cex_output : string option;
}

type stats = {
  eval_vectors : int;  (* vectors checked by the bit-parallel oracle *)
  sim_cycles : int;    (* clock cycles simulated by the PBE oracle *)
  bdd_exact : bool;    (* false when the BDD node cap forced sampling *)
  bdd_sampled_vectors : int;  (* vectors drawn by that fallback (0 if exact) *)
}

type verdict = Pass of stats | Fail of failure

let fail kind fmt =
  Printf.ksprintf
    (fun detail -> Fail { kind; detail; cex_input = None; cex_output = None })
    fmt

(* The front end against a source network [net], which [net_seed]
   rebuilds: a BDD comparison (inputs matched by position, outputs by
   name) that falls back to seeded sampling past [limit] BDD nodes, so
   the wide suite circuits stay checkable. *)
let frontend_failure ?limit ~net_seed ~what net other =
  let checked =
    Logic.Equiv.networks_or_sample ?limit ~seed:net_seed net other
  in
  match checked.Logic.Equiv.verdict with
  | Logic.Equiv.Equivalent -> None
  | Logic.Equiv.Counterexample { input; output } ->
      Some
        {
          kind = Frontend;
          detail = Printf.sprintf "net seed %d: %s differs from source" net_seed what;
          cex_input = Some input;
          cex_output = Some output;
        }
  | Logic.Equiv.Unknown reason ->
      Some
        {
          kind = Frontend;
          detail = Printf.sprintf "net seed %d: %s: %s" net_seed what reason;
          cex_input = None;
          cex_output = None;
        }

(* The unate network [u] that [net] prepared to computes [net]. *)
let check_prepare ?limit ~net_seed net u =
  frontend_failure ?limit ~net_seed ~what:"prepared unate network" net
    (Unate.Unetwork.to_network u)

(* [net] survives a BLIF round trip. *)
let check_roundtrip ?limit ~net_seed net =
  match Blif.parse_string (Blif.to_string net) with
  | parsed -> frontend_failure ?limit ~net_seed ~what:"BLIF round trip" net parsed
  | exception e ->
      Some
        {
          kind = Frontend;
          detail =
            Printf.sprintf "net seed %d: BLIF round trip raised %s" net_seed
              (Printexc.to_string e);
          cex_input = None;
          cex_output = None;
        }

let check_frontend ~net_seed net u =
  match check_prepare ~net_seed net u with
  | Some _ as failure -> failure
  | None -> check_roundtrip ~net_seed net

(* Map [u] under [cfg].  The engine emits every gate finished under
   [cfg.opts] (stack order and discharges), so that is the whole
   mapping.  With [cfg.rewrite > 0] the rewrite portfolio picks among
   restructured variants — the oracles downstream still compare against
   the original [u], so a pass certifies the rewriting layer end to
   end. *)
let map_choice ?budget ?memo u (cfg : Gen_config.t) =
  Restructure.map_best ?budget ?memo ~limit:cfg.Gen_config.rewrite
    cfg.Gen_config.opts u

let build ?budget ?memo u (cfg : Gen_config.t) =
  if cfg.Gen_config.rewrite > 0 then
    (map_choice ?budget ?memo u cfg).Restructure.circuit
  else fst (Engine.map ?budget ?memo cfg.Gen_config.opts u)

(* The network the mapping actually implements: the rewrite portfolio's
   winner, or [u] itself when the front end is off.  The exact-
   optimality oracle certifies this network — the DP ran on it. *)
let chosen_network ?budget ?memo u (cfg : Gen_config.t) =
  if cfg.Gen_config.rewrite > 0 then
    (map_choice ?budget ?memo u cfg).Restructure.chosen
  else u

(* BDD equivalence with the degradation ladder built in: per-output-cone
   BDDs under the budget's node cap, each blown cone degrading to seeded
   bit-parallel sampling (the vector count lands in the stats).  Returns
   [Ok (exact, sampled_vectors)] on agreement. *)
let check_bdd ~budget ~seed u circuit =
  let source = Unate.Unetwork.to_network u in
  let limit = Resilience.Budget.max_bdd_nodes budget in
  let checked =
    Logic.Equiv.networks_per_output_or_sample ?limit ~seed:(seed lxor 0xB0D)
      source (Circuit.to_network circuit)
  in
  match checked.Logic.Equiv.verdict with
  | Logic.Equiv.Equivalent ->
      Ok (checked.Logic.Equiv.exact, checked.Logic.Equiv.sampled_vectors)
  | Logic.Equiv.Counterexample { input; output } ->
      Error
        {
          kind = Bdd;
          detail =
            (if checked.Logic.Equiv.exact then
               "BDD reconstruction differs from source"
             else "sampled fallback: reconstruction differs from source");
          cex_input = Some input;
          cex_output = Some output;
        }
  | Logic.Equiv.Unknown reason ->
      (* Only interface mismatches survive the sampling fallback. *)
      Error
        { kind = Bdd; detail = reason; cex_input = None; cex_output = None }

let check_eval ~budget ~vectors ~rng u circuit =
  let n = Array.length (Unate.Unetwork.inputs u) in
  let rounds = (vectors + 63) / 64 in
  let failure = ref None in
  let round = ref 0 in
  while !failure = None && !round < rounds do
    incr round;
    Resilience.Budget.check_deadline budget;
    let words = Array.init n (fun _ -> Logic.Rng.next64 rng) in
    let rc = Circuit.eval64 circuit words in
    let ru = Unate.Unetwork.eval64 u words in
    let tbl = Hashtbl.create 16 in
    Array.iter (fun (nm, v) -> Hashtbl.replace tbl nm v) ru;
    Array.iter
      (fun (nm, v) ->
        if !failure = None then
          match Hashtbl.find_opt tbl nm with
          | Some v' when v = v' -> ()
          | Some v' ->
              let diff = Int64.logxor v v' in
              let lane = ref 0 in
              while
                Int64.logand (Int64.shift_right_logical diff !lane) 1L = 0L
              do
                incr lane
              done;
              let input =
                Array.map
                  (fun w ->
                    Int64.logand (Int64.shift_right_logical w !lane) 1L = 1L)
                  words
              in
              failure :=
                Some
                  {
                    kind = Eval;
                    detail = "bit-parallel evaluation differs from source";
                    cex_input = Some input;
                    cex_output = Some nm;
                  }
          | None ->
              failure :=
                Some
                  {
                    kind = Eval;
                    detail = Printf.sprintf "output %s missing from circuit" nm;
                    cex_input = None;
                    cex_output = Some nm;
                  })
      rc
  done;
  match !failure with Some f -> Error f | None -> Ok (rounds * 64)

let check_pbe ~pairs ~rng circuit =
  let n = Array.length circuit.Circuit.input_names in
  let stimulus =
    Sim.Domino_sim.hold_strike_stimulus ~rng ~pairs n
    @ List.init 32 (fun _ -> Array.init n (fun _ -> Logic.Rng.bool rng))
  in
  let cycles = List.length stimulus in
  let r = Sim.Domino_sim.run circuit stimulus in
  if r.Sim.Domino_sim.total_events > 0 || r.Sim.Domino_sim.corrupted_cycles > 0
  then
    Error
      {
        kind = Pbe;
        detail =
          Printf.sprintf
            "%d parasitic-bipolar events, %d corrupted cycles on a protected \
             mapping"
            r.Sim.Domino_sim.total_events r.Sim.Domino_sim.corrupted_cycles;
        cex_input = None;
        cex_output = None;
      }
  else Ok cycles

(* The wall clock is consulted between stages and inside each stage's
   round loop; [inject] fires the chaos faults at the stage boundaries.
   Budget exhaustion and injected faults are *not* oracle verdicts: they
   re-raise so the driver can record the run as a timeout / injected
   fault instead of a mapper crash. *)
let check ?(eval_vectors = 2048) ?(sim_pairs = 24) ?(seed = 0)
    ?(budget = Resilience.Budget.unlimited)
    ?(inject = Resilience.Chaos.no_point) ?memo u cfg =
  Resilience.Budget.check_deadline budget;
  inject ~site:"oracle.map";
  match build ~budget ?memo u cfg with
  | exception (Resilience.Budget.Exhausted _ as e) -> raise e
  | exception e -> fail Crash "mapper raised: %s" (Printexc.to_string e)
  | circuit -> (
      match Circuit.validate circuit with
      | Error e -> fail Structure "invalid circuit: %s" e
      | Ok () -> (
          Resilience.Budget.check_deadline budget;
          inject ~site:"oracle.bdd";
          match check_bdd ~budget ~seed u circuit with
          | Error f -> Fail f
          | Ok (bdd_exact, bdd_sampled_vectors) -> (
              let rng = Logic.Rng.create (seed lxor 0xD1FF) in
              inject ~site:"oracle.eval";
              match check_eval ~budget ~vectors:eval_vectors ~rng u circuit with
              | Error f -> Fail f
              | Ok eval_vectors -> (
                  Resilience.Budget.check_deadline budget;
                  inject ~site:"oracle.pbe";
                  match check_pbe ~pairs:sim_pairs ~rng circuit with
                  | Error f -> Fail f
                  | Ok sim_cycles ->
                      Pass
                        { eval_vectors; sim_cycles; bdd_exact;
                          bdd_sampled_vectors }))))

(* Negative oracle: the same stimulus against the mapping with its
   discharge transistors stripped.  Returns the event count — the caller
   aggregates, because a single circuit is not guaranteed to expose PBE
   (its stacks may all be parallel-free). *)
let stripped_events ?(sim_pairs = 48) ?(seed = 0) circuit =
  let stripped = Circuit.strip_discharges circuit in
  let n = Array.length circuit.Circuit.input_names in
  let rng = Logic.Rng.create (seed lxor 0x57A1) in
  let stimulus = Sim.Domino_sim.hold_strike_stimulus ~rng ~pairs:sim_pairs n in
  let r = Sim.Domino_sim.run stripped stimulus in
  r.Sim.Domino_sim.total_events
