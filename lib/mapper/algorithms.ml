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
}

let prepare ?(extract = false) net =
  Obs.Trace.with_span ~cat:"mapper" "mapper.prepare"
    ~args:(fun () -> [ ("source", Logic.Network.name net) ])
    (fun () ->
      let net =
        Obs.Trace.with_span ~cat:"mapper" "prepare.strash" (fun () ->
            Logic.Strash.run net)
      in
      let net =
        if extract then
          Obs.Trace.with_span ~cat:"mapper" "prepare.extract" (fun () ->
              Logic.Extract.run net)
        else net
      in
      Obs.Trace.with_span ~cat:"mapper" "prepare.decompose" (fun () ->
          Unate.Unetwork.of_network (Unate.Decompose.to_aoi net)))

let options_of ~cost ~w_max ~h_max ~both_orders ~grounded_at_foot ~pareto_width
    flow =
  let style =
    match flow with Domino_map | Rs_map -> Engine.Bulk | Soi_domino_map -> Engine.Soi
  in
  { Engine.w_max; h_max; style; cost; both_orders; grounded_at_foot; pareto_width }

(* The flow-specific postprocess is linear in the circuit, so it runs on
   degraded mappings unbudgeted, exactly as on full ones. *)
let postprocess_of flow circuit =
  Obs.Trace.with_span ~cat:"mapper" "mapper.postprocess"
    ~args:(fun () -> [ ("flow", flow_name flow) ])
    (fun () ->
      match flow with
      | Domino_map -> Postprocess.insert_discharges circuit
      | Rs_map -> Postprocess.rearrange_stacks circuit
      | Soi_domino_map ->
          (* Stack reordering is one of the paper's transformations; the DP
             makes its ordering choices pairwise per AND node, so a final
             flatten-and-reorder pass can still sink a parallel branch that
             was committed early.  Discharge points are recomputed for the
             reordered structures. *)
          Postprocess.rearrange_stacks circuit)

let postprocess = postprocess_of

let finish flow u circuit stats =
  let circuit = postprocess_of flow circuit in
  {
    circuit;
    counts = Domino.Circuit.counts circuit;
    unate = u;
    mapped = u;
    stats;
    rewrite = None;
  }

(* The rewrite portfolio postprocesses each candidate itself (the price
   must weigh the circuit the flow would actually emit), so its winner
   is packaged without a second postprocess.  [unate] stays the
   original network: downstream equivalence checks then verify the
   rewrite end to end, not just the mapping of the chosen variant. *)
let finish_rewritten u (r : Restructure.outcome) =
  {
    circuit = r.Restructure.circuit;
    counts = Domino.Circuit.counts r.Restructure.circuit;
    unate = u;
    mapped = r.Restructure.chosen;
    stats = r.Restructure.stats;
    rewrite = Some r.Restructure.info;
  }

let run ?memo ?(cost = Cost.area) ?(w_max = 5) ?(h_max = 8)
    ?(both_orders = true) ?(grounded_at_foot = true) ?(pareto_width = 1)
    ?(extract = false) ?(rewrite = 0) flow net =
  let u = prepare ~extract net in
  let options =
    options_of ~cost ~w_max ~h_max ~both_orders ~grounded_at_foot ~pareto_width
      flow
  in
  if rewrite > 0 then
    finish_rewritten u
      (Restructure.map_best ?memo ~limit:rewrite
         ~postprocess:(postprocess_of flow) options u)
  else
    let circuit, stats = Engine.map ?memo options u in
    finish flow u circuit stats

let run_outcome ?(budget = Resilience.Budget.unlimited) ?memo
    ?(on_exhaust = `Degrade) ?(cost = Cost.area) ?(w_max = 5) ?(h_max = 8)
    ?(both_orders = true) ?(grounded_at_foot = true) ?(pareto_width = 1)
    ?(extract = false) ?(rewrite = 0) flow net =
  let u = prepare ~extract net in
  let options =
    options_of ~cost ~w_max ~h_max ~both_orders ~grounded_at_foot ~pareto_width
      flow
  in
  if rewrite > 0 then
    Resilience.Outcome.map (finish_rewritten u)
      (Restructure.map_best_outcome ~budget ?memo ~on_exhaust ~limit:rewrite
         ~postprocess:(postprocess_of flow) options u)
  else
    Resilience.Outcome.map
      (fun (circuit, stats) -> finish flow u circuit stats)
      (Engine.map_outcome ~budget ?memo ~on_exhaust options u)

let domino_map ?cost ?w_max ?h_max net = run ?cost ?w_max ?h_max Domino_map net
let rs_map ?cost ?w_max ?h_max net = run ?cost ?w_max ?h_max Rs_map net
let soi_domino_map ?cost ?w_max ?h_max net = run ?cost ?w_max ?h_max Soi_domino_map net
