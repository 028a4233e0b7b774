type flow =
  | Domino_map
  | Rs_map
  | Soi_domino_map

let flow_name = function
  | Domino_map -> "Domino_Map"
  | Rs_map -> "RS_Map"
  | Soi_domino_map -> "SOI_Domino_Map"

type result = {
  circuit : Domino.Circuit.t;
  counts : Domino.Circuit.counts;
  unate : Unate.Unetwork.t;
  mapped : Unate.Unetwork.t;
  stats : Engine.stats;
  rewrite : Restructure.info option;
  remap : Engine.remap_info option;
}

let prepare net =
  Obs.Trace.with_span ~cat:"mapper" "mapper.prepare"
    ~args:(fun () -> [ ("source", Logic.Network.name net) ])
    (fun () ->
      let net =
        Obs.Trace.with_span ~cat:"mapper" "prepare.strash" (fun () ->
            Logic.Strash.run net)
      in
      Obs.Trace.with_span ~cat:"mapper" "prepare.decompose" (fun () ->
          Unate.Unetwork.of_network (Unate.Decompose.to_aoi net)))

let options_of ?(cost = Engine.default_options.Engine.cost)
    ?(w_max = Engine.default_options.Engine.w_max)
    ?(h_max = Engine.default_options.Engine.h_max)
    ?(both_orders = Engine.default_options.Engine.both_orders)
    ?(grounded_at_foot = Engine.default_options.Engine.grounded_at_foot)
    ?(pareto_width = Engine.default_options.Engine.pareto_width) flow =
  (* Both baselines map PBE-obliviously; RS_Map then reorders the
     stacks (Table I), and so does the paper's flow as its final polish:
     the DP orders each AND pairwise, so a flatten-and-reorder of the
     finished gate can still sink a parallel branch committed early. *)
  let style, rearrange =
    match flow with
    | Domino_map -> (Engine.Bulk, false)
    | Rs_map -> (Engine.Bulk, true)
    | Soi_domino_map -> (Engine.Soi, true)
  in
  { Engine.w_max; h_max; style; cost; both_orders; grounded_at_foot;
    pareto_width; rearrange }

(* The engine's per-gate finish over a whole circuit, for soibench's
   one-shot layer split; the driver never calls it. *)
let postprocess flow c =
  let finish = Engine.finish (options_of flow) in
  { c with Domino.Circuit.gates = Array.map finish c.Domino.Circuit.gates }

let packaged u (circuit, stats) =
  {
    circuit;
    counts = Domino.Circuit.counts circuit;
    unate = u;
    mapped = u;
    stats;
    rewrite = None;
    remap = None;
  }

(* [unate] stays the original network under rewriting: downstream
   equivalence checks then verify the rewrite end to end, not just the
   mapping of the chosen variant. *)
let packaged_rewrite u (r : Restructure.outcome) =
  {
    circuit = r.Restructure.circuit;
    counts = Domino.Circuit.counts r.Restructure.circuit;
    unate = u;
    mapped = r.Restructure.chosen;
    stats = r.Restructure.stats;
    rewrite = Some r.Restructure.info;
    remap = None;
  }

let map_outcome ?(budget = Resilience.Budget.unlimited) ?memo ?on_exhaust ?cost
    ?w_max ?h_max ?(rewrite = 0) flow u =
  let options = options_of ?cost ?w_max ?h_max flow in
  if rewrite > 0 then
    Resilience.Outcome.map (packaged_rewrite u)
      (Restructure.map_best_outcome ~budget ?memo ?on_exhaust ~limit:rewrite
         options u)
  else
    Resilience.Outcome.map (packaged u)
      (Engine.map_outcome ~budget ?memo ?on_exhaust options u)

(* An unlimited budget never trips, so the outcome is always [Ok]. *)
let map ?memo ?cost ?w_max ?h_max ?rewrite flow u =
  match map_outcome ?memo ?cost ?w_max ?h_max ?rewrite flow u with
  | Resilience.Outcome.Ok r -> r
  | Resilience.Outcome.Degraded _ | Resilience.Outcome.Failed _ -> assert false

let run_outcome ?budget ?memo ?on_exhaust ?cost ?w_max ?h_max ?rewrite flow net =
  map_outcome ?budget ?memo ?on_exhaust ?cost ?w_max ?h_max ?rewrite flow
    (prepare net)

let run ?memo ?cost ?w_max ?h_max ?rewrite flow net =
  map ?memo ?cost ?w_max ?h_max ?rewrite flow (prepare net)

let domino_map ?cost ?w_max ?h_max net = run ?cost ?w_max ?h_max Domino_map net
let rs_map ?cost ?w_max ?h_max net = run ?cost ?w_max ?h_max Rs_map net
let soi_domino_map ?cost ?w_max ?h_max net = run ?cost ?w_max ?h_max Soi_domino_map net

(* ---------- incremental remapping ---------- *)

type base = {
  options : Engine.options;
  memo : Memo.t option;
  mutable state : [ `Unbuilt of Unate.Unetwork.t | `Built of Engine.remap_state ];
}

let base ?memo ?cost ?w_max ?h_max flow u =
  {
    options = options_of ?cost ?w_max ?h_max flow;
    memo;
    state = `Unbuilt u;
  }

let built b = match b.state with `Built _ -> true | `Unbuilt _ -> false

(* The base's cold map runs under the first remap's budget and exhaustion
   policy; a trip leaves it unbuilt.  A remap that trips leaves a built
   state as it was ([Engine.remap] writes it only on success). *)
let remap ?(budget = Resilience.Budget.unlimited) ?on_exhaust b u =
  let info = ref None in
  Engine.guard ?on_exhaust b.options u (fun () ->
      let st =
        match b.state with
        | `Built st -> st
        | `Unbuilt u0 ->
            let st, _ = Engine.remap_init ~budget ?memo:b.memo b.options u0 in
            b.state <- `Built st;
            st
      in
      let circuit, stats, i = Engine.remap ~budget st u in
      info := Some i;
      (circuit, stats))
  |> Resilience.Outcome.map (fun mapped ->
         { (packaged u mapped) with remap = !info })
