type info = {
  generated : int;
  tried : int;
  chosen_site : int;
  chosen_rule : string option;
  original_cost : int;
  cost : int;
  salt : int;
}

type outcome = {
  circuit : Domino.Circuit.t;
  stats : Engine.stats;
  chosen : Unate.Unetwork.t;
  info : info;
}

(* The model's weights applied to a finished circuit.  [t_clock]
   includes the discharge transistors, so the plain clocked count
   (precharge + foot) is [t_clock - t_disch]; everything else in
   [t_logic] is a regular transistor. *)
let circuit_cost (m : Cost.model) (c : Domino.Circuit.counts) =
  let clocked = c.Domino.Circuit.t_clock - c.Domino.Circuit.t_disch in
  (m.Cost.regular * (c.Domino.Circuit.t_logic - clocked))
  + (m.Cost.clocked * clocked)
  + (m.Cost.discharge * c.Domino.Circuit.t_disch)
  + (m.Cost.depth_factor * c.Domino.Circuit.levels)

(* Mix the rule-set fingerprint with the variant cap: a cache written
   under one rewrite configuration is never consulted by another (or by
   a plain run, whose salt is 0). *)
let salt_of ~limit =
  (Rewrite.Rules.fingerprint lxor (limit * 0x9E3779B9)) land max_int

let default_limit = 8

(* Weigh one mapping.  The engine's circuit is final, so this prices
   exactly what the flow emits. *)
let priced options (circuit, stats) =
  ( circuit,
    stats,
    circuit_cost options.Engine.cost (Domino.Circuit.counts circuit) )

(* Fold the variant list over an already-mapped original.  A budget
   trip here abandons the remaining variants: the original is in hand,
   so losing choices is a quality degradation, not an error. *)
let try_variants ?budget ?memo ~salt options variants base =
  let best = ref base in
  (try
     List.iter
       (fun (v : Rewrite.Choices.variant) ->
         let circuit, stats, cost =
           priced options
             (Engine.map ?budget ?memo ~memo_salt:salt options
                v.Rewrite.Choices.v_net)
         in
         let b = !best in
         best :=
           if cost < b.info.cost then
             {
               circuit;
               stats;
               chosen = v.Rewrite.Choices.v_net;
               info =
                 {
                   b.info with
                   tried = b.info.tried + 1;
                   chosen_site = v.Rewrite.Choices.v_site;
                   chosen_rule = Some v.Rewrite.Choices.v_rule;
                   cost;
                 };
             }
           else { b with info = { b.info with tried = b.info.tried + 1 } })
       variants
   with Resilience.Budget.Exhausted _ -> ());
  !best

let base_outcome ~salt ~generated u (circuit, stats, cost) =
  {
    circuit;
    stats;
    chosen = u;
    info =
      {
        generated;
        tried = 1;
        chosen_site = -1;
        chosen_rule = None;
        original_cost = cost;
        cost;
        salt;
      };
  }

let span ~limit u body =
  Obs.Trace.with_span ~cat:"rewrite" "rewrite"
    ~args:(fun () ->
      [
        ("source", Unate.Unetwork.source_name u);
        ("limit", string_of_int limit);
      ])
    body

let map_best_outcome ?budget ?memo ?(on_exhaust = `Degrade)
    ?(limit = default_limit) options u =
  span ~limit u @@ fun () ->
  let salt = salt_of ~limit in
  let variants = Rewrite.Choices.enumerate ?budget ~limit u in
  let base r =
    base_outcome ~salt ~generated:(List.length variants) u (priced options r)
  in
  match
    Engine.map_outcome ?budget ?memo ~memo_salt:salt ~on_exhaust options u
  with
  | Resilience.Outcome.Failed reason -> Resilience.Outcome.Failed reason
  | Resilience.Outcome.Degraded (r, ds) ->
      (* The budget is spent; no variant could be mapped under the full
         algorithm, so the portfolio collapses to the degraded
         original. *)
      Resilience.Outcome.Degraded (base r, ds)
  | Resilience.Outcome.Ok r ->
      Resilience.Outcome.Ok
        (try_variants ?budget ?memo ~salt options variants (base r))

let map_best ?budget ?memo ?limit options u =
  match map_best_outcome ?budget ?memo ~on_exhaust:`Fail ?limit options u with
  | Resilience.Outcome.Ok r -> r
  | Resilience.Outcome.Failed reason ->
      raise (Resilience.Budget.Exhausted reason)
  | Resilience.Outcome.Degraded _ -> assert false
