open Unate
open Domino

type style = Bulk | Soi

type options = {
  w_max : int;
  h_max : int;
  style : style;
  cost : Cost.model;
  both_orders : bool;
  grounded_at_foot : bool;
  pareto_width : int;
}

let default_options =
  {
    w_max = 5;
    h_max = 8;
    style = Soi;
    cost = Cost.area;
    both_orders = true;
    grounded_at_foot = true;
    pareto_width = 1;
  }

type stats = {
  nodes_processed : int;
  tuples_kept : int;
  combinations_tried : int;
  gates_formed : int;
}

(* Gate formed for a unate node, before circuit ids are assigned.  The
   tuple's derivation names fanins of [gi_node], not signals; the
   materialiser resolves it against the network. *)
type gate_info = {
  gi_node : int;
  gi_sol : Soi_rules.sol;
  gi_footed : bool;
  gi_level : int;
  gi_value : Cost.value;  (* formation cost, overhead and discharges included *)
  gi_disch : int;  (* discharge transistors this gate will carry *)
}

(* Mapper observability (see docs/observability.md).  Counts are
   accumulated in plain local refs during the sweep and flushed to the
   registry once per [map] call, so the DP hot loop never touches shared
   state; everything here is work-derived and schedule-independent. *)
let m_nodes = Obs.Metrics.counter "mapper.nodes"
let m_combinations = Obs.Metrics.counter "mapper.combinations"
let m_tuples_kept = Obs.Metrics.counter "mapper.tuples_kept"
let m_tuples_pruned = Obs.Metrics.counter "mapper.tuples_pruned"
let m_gates = Obs.Metrics.counter "mapper.gates"
let m_discharges = Obs.Metrics.counter "mapper.discharges"
let m_greedy_fallback = Obs.Metrics.counter "mapper.greedy_fallback"

let h_frontier =
  Obs.Metrics.histogram ~buckets:[| 1; 2; 4; 8; 16; 32; 64 |]
    "mapper.frontier_size"

let h_p_dis =
  Obs.Metrics.histogram ~buckets:[| 0; 1; 2; 4; 8; 16 |] "mapper.p_dis"

(* [par_b] is a boolean shape flag, so the histogram is a two-bucket
   true/false tally. *)
let h_par_b = Obs.Metrics.histogram ~buckets:[| 0; 1 |] "mapper.par_b"

(* [greedy = true] is the degradation rung: every node offers its
   consumers only the formed gate tuple, exactly as if it had multiple
   fanouts.  Each node then tries O(pareto_width^2) combinations instead
   of a product of full tuple tables, so the sweep is linear in the
   network and cannot blow the budget it is rescuing.

   [memo] is the structural cache ({!Memo}): before expanding a node's
   combination loop the sweep looks its key up, and a hit installs the
   cached slot array itself.  Memoization is exactly transparent — same
   circuit, same stats — except that [combinations_tried] (and the
   tuple-budget charge) counts only combinations actually executed, so
   hits lower it.  The greedy rung never consults the cache: it changes
   the mapping-boundary rule, so its tables live in a different world. *)
let map_body ~greedy ~budget ~memo ~layers ~memo_salt options u =
  if options.w_max < 2 || options.h_max < 2 then
    invalid_arg "Engine.map: w_max and h_max must be at least 2";
  if options.pareto_width < 1 then
    invalid_arg "Engine.map: pareto_width must be at least 1";
  let model = options.cost in
  let n = Unetwork.node_count u in
  let fanouts = Unetwork.fanout_counts u in
  (* Each node's slot array, (w-1) * h_max + (h-1), each slot a Pareto
     set.  A memo hit installs the cached array itself, so no table is
     written once its node is done. *)
  let tables = Array.make n [||] in
  let gates = Array.make n None in
  let combinations = ref 0 in
  (* Tuples rejected on arrival, evicted by a dominating newcomer, or
     truncated off the frontier cap.  The accounting is hoisted behind
     [counting] so the disabled hot path runs the same instructions as
     an uninstrumented build. *)
  let pruned = ref 0 in
  let counting = Obs.Metrics.enabled () in

  let slot w h = ((w - 1) * options.h_max) + (h - 1) in

  let key s = Cost.key model s.Soi_rules.value in
  (* Truncate a sorted frontier to [k] tuples in one pass. *)
  let rec take k xs =
    match xs with x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> []
  in
  (* [a] dominates a tuple with coordinates [par_b] .. [p_dis] when
     every completion of that tuple is matched or beaten by the same
     completion of [a].  That needs agreement on the shape
     flags the combinators read ([par_b]), the footedness coordinate
     ([has_pi]: a footless tuple completes into a cheaper gate, so it may
     dominate a footed one but never the reverse), and a componentwise
     comparison of the cost coordinates: [weighted] composes by addition
     but [depth] by [max], so comparing the collapsed key would wrongly
     discard a deeper-but-lighter tuple that wins after a later [max].
     This mirrors [Opt.Backend.dominates] — the fuzzer's exact oracle
     proved the old collapsed-key, foot-blind predicate drops optimal
     tuples (see test_engine's frontier regression).  The candidate
     side is scalars so a candidate can be tested before it is built. *)
  let dominates a ~par_b ~has_pi ~weighted ~depth ~p_dis =
    a.Soi_rules.par_b = par_b
    && ((not a.Soi_rules.has_pi) || has_pi)
    && a.Soi_rules.value.Cost.weighted <= weighted
    && (model.Cost.depth_factor = 0 || a.Soi_rules.value.Cost.depth <= depth)
    && a.Soi_rules.p_dis <= p_dis
  in
  let dominates_sol a (b : Soi_rules.sol) =
    dominates a ~par_b:b.Soi_rules.par_b ~has_pi:b.Soi_rules.has_pi
      ~weighted:b.Soi_rules.value.Cost.weighted
      ~depth:b.Soi_rules.value.Cost.depth ~p_dis:b.Soi_rules.p_dis
  in
  (* [List.exists] over [dominates], without a closure per candidate. *)
  let rec dominated kept ~par_b ~has_pi ~weighted ~depth ~p_dis =
    match kept with
    | [] -> false
    | old :: rest ->
        dominates old ~par_b ~has_pi ~weighted ~depth ~p_dis
        || dominated rest ~par_b ~has_pi ~weighted ~depth ~p_dis
  in
  (* The frontier cap is cost-aware on both of a tuple's completion
     roles.  A surviving tuple is either combined further (its bare key
     is what matters) or formed into a gate right here (the key plus its
     formation liabilities: the second clocked transistor if its foot is
     needed, and its potential discharges when feet are left floating).
     Under weighted models the two orders genuinely disagree — a footed
     tuple can be the cheapest to extend while a slightly costlier
     footless one forms the cheaper gate — so truncating by either order
     alone drops a winner (the exact oracle proved both directions on
     real inputs).  The cap therefore keeps the top [pareto_width]
     tuples under {e each} order; a slot holds at most twice the
     configured width, and only when the two orders disagree. *)
  let formed_key s =
    key s
    + (if s.Soi_rules.has_pi then model.Cost.clocked else 0)
    + (if options.grounded_at_foot then 0
       else model.Cost.discharge * s.Soi_rules.p_dis)
  in
  let compare_sols = Soi_rules.compare_sols model in
  let compare_formed a b =
    match compare (formed_key a) (formed_key b) with
    | 0 -> (
        match compare a.Soi_rules.p_dis b.Soi_rules.p_dis with
        | 0 -> (
            match compare a.Soi_rules.value.Cost.raw b.Soi_rules.value.Cost.raw with
            | 0 -> compare a.Soi_rules.has_pi b.Soi_rules.has_pi
            | c -> c)
        | c -> c)
    | c -> c
  in
  (* Under a depth objective the collapsed key also hides a second
     genuine tradeoff: [weighted] composes by [+] but [depth] by [max],
     so a deeper-but-lighter tuple beats a shallower-but-heavier one
     exactly when a later combination pairs it with a deep sibling.
     Keeping the lightest tuples as a third set preserves that end of
     the frontier; when [depth_factor = 0] the weighted order coincides
     with the key order and the set is redundant. *)
  let compare_light a b =
    match compare a.Soi_rules.value.Cost.weighted b.Soi_rules.value.Cost.weighted with
    | 0 -> (
        match compare a.Soi_rules.value.Cost.depth b.Soi_rules.value.Cost.depth with
        | 0 -> (
            match compare a.Soi_rules.p_dis b.Soi_rules.p_dis with
            | 0 -> (
                match
                  compare a.Soi_rules.value.Cost.raw b.Soi_rules.value.Cost.raw
                with
                | 0 -> compare b.Soi_rules.has_pi a.Soi_rules.has_pi
                | c -> c)
            | c -> c)
        | c -> c)
    | c -> c
  in
  let cap_frontier sorted =
    if List.length sorted <= options.pareto_width then sorted
    else
      let keep_inline = take options.pareto_width sorted in
      let keep_formed =
        take options.pareto_width (List.sort compare_formed sorted)
      in
      let keep_light =
        if model.Cost.depth_factor = 0 then []
        else take options.pareto_width (List.sort compare_light sorted)
      in
      List.filter
        (fun s ->
          List.memq s keep_inline || List.memq s keep_formed
          || List.memq s keep_light)
        sorted
  in
  (* One candidate: [op] over fanin tuples [a] (a series pair's top)
     and [b]; [flipped] when [a] came from fanin 1.  The bounds and
     dominance tests read only scalars, so a candidate rejected on
     arrival counts one pruned tuple and is never built; only a survivor
     allocates its tuple, cost value and derivation node.  A survivor
     evicts the tuples it dominates, then the slot is re-sorted and
     capped. *)
  let price table op ~flipped a b =
    let w = Soi_rules.width op a b and h = Soi_rules.height op a b in
    if w > options.w_max || h > options.h_max then begin
      if counting then incr pruned
    end
    else begin
      let i = slot w h in
      let kept = table.(i) in
      if
        dominated kept ~par_b:(Soi_rules.par_b op a b)
          ~has_pi:(Soi_rules.has_pi a b)
          ~weighted:(Soi_rules.weighted model op a b)
          ~depth:(Soi_rules.depth a b) ~p_dis:(Soi_rules.p_dis op a b)
      then begin
        if counting then incr pruned
      end
      else begin
        let s =
          if flipped then Soi_rules.combine ~flipped:true model op a b
          else Soi_rules.combine model op a b
        in
        let survivors =
          List.filter (fun old -> not (dominates_sol s old)) kept
        in
        if counting then
          pruned := !pruned + (List.length kept - List.length survivors);
        let sorted = List.sort compare_sols (s :: survivors) in
        let capped = cap_frontier sorted in
        (if counting then
           pruned := !pruned + (List.length sorted - List.length capped));
        table.(i) <- capped
      end
    end
  in

  (* The gate formed over tuple [s] of node [node]: overhead for the
     foot, uncommitted discharges when feet are left floating, one level
     up. *)
  let form_info node (s : Soi_rules.sol) =
    let footed = s.Soi_rules.has_pi in
    let extra_disch =
      if options.grounded_at_foot then 0 else s.Soi_rules.p_dis
    in
    let value =
      Cost.level_up
        (Cost.combine s.Soi_rules.value
           (Cost.combine
              (Cost.gate_overhead model ~footed)
              (Cost.discharges model extra_disch)))
    in
    {
      gi_node = node;
      gi_sol = s;
      gi_footed = footed;
      gi_level = value.Cost.depth;
      gi_value = value;
      gi_disch = s.Soi_rules.disch + extra_disch;
    }
  in
  (* The raw transistors [form_info] adds beyond the ones every gate
     pays: with [formed_key] it orders candidate gates exactly as
     [Cost.compare_values] orders their formed values. *)
  let formed_raw s =
    s.Soi_rules.value.Cost.raw
    + (if s.Soi_rules.has_pi then 1 else 0)
    + if options.grounded_at_foot then 0 else s.Soi_rules.p_dis
  in

  (* The gate a node forms, computed after its table is complete: the
     first tuple whose formed value is least, by scalars, so only the
     winner's gate is built. *)
  let form_gate id =
    let best = ref None and best_key = ref 0 and best_raw = ref 0 in
    Array.iter
      (List.iter (fun (s : Soi_rules.sol) ->
           let k = formed_key s and r = formed_raw s in
           match !best with
           | Some _ when k > !best_key || (k = !best_key && r >= !best_raw) -> ()
           | _ ->
               best := Some s;
               best_key := k;
               best_raw := r))
      tables.(id);
    match !best with
    | Some s ->
        let info = form_info id s in
        gates.(id) <- Some info;
        info
    | None ->
        (* Unreachable in practice: every AND/OR node admits at least the
           {2,1}/{1,2} combination of its fanins' gate tuples, which fits
           any bounds >= 2.  Name the node and bounds instead of dying
           anonymously if an engine change ever breaks that invariant. *)
        invalid_arg
          (Printf.sprintf
             "Engine.form_gate: node %d has no feasible tuple within W<=%d, \
              H<=%d"
             id options.w_max options.h_max)
  in

  (* Formed-gate alternatives for single-fanout drivers under a depth
     objective.  With [depth_factor = 0] the formed key totally orders a
     node's formed candidates, so committing to the single
     [Cost.compare_values] winner is exact.  With a depth term the
     candidates are only partially ordered — [weighted] composes by [+]
     but [depth] by [max], so a deeper-but-lighter formed gate and a
     shallower-but-heavier one each win beside different siblings — and
     the exact oracle proved the single commitment drops the optimum
     (fuzz seed 1, run 230).  Each alternative is registered here under a
     synthetic gate id (>= node count), and its leaf tuple's derivation
     is [Formed id], so the winning structure names the exact gate it
     was costed with and [materialise] emits that one. *)
  let alt_gates : (int, gate_info) Hashtbl.t = Hashtbl.create 16 in
  let next_alt = ref n in
  let register_alt info =
    let id = !next_alt in
    incr next_alt;
    Hashtbl.replace alt_gates id info;
    id
  in

  let gate_of id =
    if id >= n then Hashtbl.find alt_gates id
    else match gates.(id) with Some g -> g | None -> form_gate id
  in

  (* Candidate tuples a fanin offers to its consumer.  A leaf names no
     signal, so every literal offers the same tuple. *)
  let pi_leaf = Soi_rules.leaf_pi model in
  let options_of fin =
    match fin with
    | Unetwork.F_const _ ->
        (* Unreachable via the public constructors: [Unetwork.mk] folds
           constant fanins away at build time, so only hand-assembled
           node records could trip this. *)
        invalid_arg
          "Engine.map: constant fanin reached the DP sweep; unate networks \
           from Unetwork.of_network/with_structure fold constants away"
    | Unetwork.F_lit _ -> [ pi_leaf ]
    | Unetwork.F_node m ->
        let shared = fanouts.(m) > 1 || greedy in
        if shared then begin
          let gi = gate_of m in
          [
            Soi_rules.leaf_gate model ~level:gi.gi_level ~carried:Cost.zero
              ~carried_disch:0;
          ]
        end
        else if model.Cost.depth_factor = 0 then begin
          (* Single commitment is exact here: the formed key totally
             orders the candidates (depth does not enter the key). *)
          let gi = gate_of m in
          let gate_sol =
            Soi_rules.leaf_gate model ~level:gi.gi_level ~carried:gi.gi_value
              ~carried_disch:gi.gi_disch
          in
          Array.fold_left
            (fun acc cands -> List.rev_append cands acc)
            [ gate_sol ] tables.(m)
        end
        else begin
          (* Depth objective: offer one formed alternative per distinct
             formation cost vector, each under its own synthetic id (see
             [register_alt]).  Deduplication keeps the first structure
             per vector — alternatives equal on every cost coordinate
             are interchangeable downstream. *)
          let seen = Hashtbl.create 8 in
          let alts =
            Array.fold_left
              (fun acc cands ->
                List.fold_left
                  (fun acc s ->
                    let info = form_info m s in
                    let k =
                      ( info.gi_value,
                        info.gi_footed,
                        info.gi_disch,
                        info.gi_level )
                    in
                    if Hashtbl.mem seen k then acc
                    else begin
                      Hashtbl.replace seen k ();
                      let fid = register_alt info in
                      {
                        (Soi_rules.leaf_gate model ~level:info.gi_level
                           ~carried:info.gi_value ~carried_disch:info.gi_disch)
                        with
                        Soi_rules.structure = Soi_rules.Formed fid;
                      }
                      :: acc
                    end)
                  acc cands)
              [] tables.(m)
          in
          Array.fold_left
            (fun acc cands -> List.rev_append cands acc)
            alts tables.(m)
        end
  in

  (* The memo session, opened only for full (non-greedy) sweeps with a
     table supplied.  Depth objectives bypass the cache: their tables
     reference the run-local synthetic gate ids of formed-gate
     alternatives, which are meaningless in any other run (see
     [register_alt]).  [layers] = [(shared, prev)] makes [memo] a remap
     overlay ({!Memo.start}). *)
  let mrun =
    match memo with
    | Some tbl when (not greedy) && model.Cost.depth_factor = 0 ->
        let under, prev =
          match layers with
          | Some (shared, prev) -> (Some shared, Some prev)
          | None -> (None, None)
        in
        Some
          (Memo.start ?under ?prev tbl ~model ~w_max:options.w_max
             ~h_max:options.h_max
             ~soi:(options.style = Soi)
             ~both_orders:options.both_orders
             ~grounded:options.grounded_at_foot ~pareto:options.pareto_width
             ~salt:memo_salt)
    | _ -> None
  in
  (* Each node's code for its consumer's key: the id of its entry. *)
  let codes = Array.make (if mrun = None then 0 else n) Memo.pi in
  let code = function
    | Unetwork.F_lit _ -> Some Memo.pi
    | Unetwork.F_const _ -> None
    | Unetwork.F_node m ->
        if fanouts.(m) > 1 then
          Some (Memo.boundary ~level:(gate_of m).gi_level)
        else Some codes.(m)
  in
  let memo_key r (nd : Unetwork.node) =
    match (code nd.Unetwork.fanin0, code nd.Unetwork.fanin1) with
    | Some c0, Some c1 ->
        Some (Memo.key r ~op_and:(nd.Unetwork.kind = Unetwork.U_and) c0 c1)
    | _ -> None
  in

  (* Main DP sweep in topological order.  Budget checkpoints: every
     combination charges the tuple allowance, and the wall clock is
     consulted once per node plus every 2048 combinations, so a tripped
     budget surfaces within a bounded amount of further work.  Memo hits
     skip a node's combination loop (and its budget charge) entirely. *)
  (* Tuples that survive in the final tables — evicted and superseded
     entries do not count. *)
  let tuples_kept = ref 0 in
  let solve id (nd : Unetwork.node) =
    let table = Array.make (options.w_max * options.h_max) [] in
    let opts0 = options_of nd.Unetwork.fanin0 in
    let opts1 = options_of nd.Unetwork.fanin1 in
    List.iter
      (fun s0 ->
        List.iter
          (fun s1 ->
            incr combinations;
            Resilience.Budget.charge_tuples budget 1;
            if !combinations land 2047 = 0 then
              Resilience.Budget.check_deadline budget;
            match nd.Unetwork.kind with
            | Unetwork.U_or -> price table Soi_rules.Or ~flipped:false s0 s1
            | Unetwork.U_and -> (
                match options.style with
                | Bulk -> price table Soi_rules.And_bulk ~flipped:false s0 s1
                | Soi ->
                    if options.both_orders then begin
                      price table Soi_rules.And_soi ~flipped:false s0 s1;
                      price table Soi_rules.And_soi ~flipped:true s1 s0
                    end
                    else if Soi_rules.heuristic_swaps s0 s1 then
                      price table Soi_rules.And_soi ~flipped:true s1 s0
                    else price table Soi_rules.And_soi ~flipped:false s0 s1))
          opts1)
      opts0;
    tables.(id) <- table;
    tuples_kept :=
      Array.fold_left (fun acc cands -> acc + List.length cands) !tuples_kept table;
    table
  in
  for id = 0 to n - 1 do
    Resilience.Budget.check_deadline budget;
    let nd = Unetwork.node u id in
    match mrun with
    | None -> ignore (solve id nd)
    | Some r -> (
        match memo_key r nd with
        | None -> ignore (solve id nd)
        | Some k -> (
            match Memo.find r k with
            | Some e ->
                tables.(id) <- Memo.table e;
                codes.(id) <- Memo.id e;
                tuples_kept := !tuples_kept + Memo.tuples e
            | None -> codes.(id) <- Memo.id (Memo.store r k (solve id nd))))
  done;

  (* Close the memo session: fold its counts into the table and the
     cache.* metrics, and leave a zero-duration span carrying them. *)
  (match mrun with
  | None -> ()
  | Some r ->
      let hits, misses = Memo.finish r in
      Obs.Trace.with_span ~cat:"mapper" "engine.memo"
        ~args:(fun () ->
          [ ("hits", string_of_int hits); ("misses", string_of_int misses) ])
        (fun () -> ()));

  (* Materialise the gates reachable from the primary outputs.  A
     gate's PDN is its tuple's derivation resolved against the network:
     a leaf is the literal or gate of the fanin that offered it, a
     composition at node [v] takes its operands from [v]'s fanins. *)
  let circuit_gates = Logic.Vec.create () in
  let circuit_id = Array.make !next_alt (-1) in
  let broken v =
    invalid_arg
      (Printf.sprintf "Engine.materialise: malformed derivation at node %d" v)
  in
  (* The gate ids (unate node, or formed alternative) that gate the
     transistors of node [v]'s tuple [s]. *)
  let rec fanin_gates v (s : Soi_rules.sol) acc =
    let nd = Unetwork.node u v in
    match s.Soi_rules.structure with
    | Soi_rules.Parallel (a, b) | Soi_rules.Series (a, b) ->
        offered v nd.Unetwork.fanin0 a (offered v nd.Unetwork.fanin1 b acc)
    | Soi_rules.Series_flipped (a, b) ->
        offered v nd.Unetwork.fanin1 a (offered v nd.Unetwork.fanin0 b acc)
    | Soi_rules.Leaf | Soi_rules.Formed _ -> broken v
  and offered v fin (s : Soi_rules.sol) acc =
    match (s.Soi_rules.structure, fin) with
    | Soi_rules.Formed k, _ -> k :: acc
    | Soi_rules.Leaf, Unetwork.F_node m -> m :: acc
    | Soi_rules.Leaf, Unetwork.F_lit _ -> acc
    | _, Unetwork.F_node m -> fanin_gates m s acc
    | _, (Unetwork.F_lit _ | Unetwork.F_const _) -> broken v
  in
  let rec pdn v (s : Soi_rules.sol) =
    let nd = Unetwork.node u v in
    match s.Soi_rules.structure with
    | Soi_rules.Parallel (a, b) ->
        Pdn.Parallel
          (offered_pdn v nd.Unetwork.fanin0 a, offered_pdn v nd.Unetwork.fanin1 b)
    | Soi_rules.Series (a, b) ->
        Pdn.Series
          (offered_pdn v nd.Unetwork.fanin0 a, offered_pdn v nd.Unetwork.fanin1 b)
    | Soi_rules.Series_flipped (a, b) ->
        Pdn.Series
          (offered_pdn v nd.Unetwork.fanin1 a, offered_pdn v nd.Unetwork.fanin0 b)
    | Soi_rules.Leaf | Soi_rules.Formed _ -> broken v
  and offered_pdn v fin (s : Soi_rules.sol) =
    match (s.Soi_rules.structure, fin) with
    | Soi_rules.Formed k, _ -> Pdn.Leaf (Pdn.S_gate circuit_id.(k))
    | Soi_rules.Leaf, Unetwork.F_node m -> Pdn.Leaf (Pdn.S_gate circuit_id.(m))
    | Soi_rules.Leaf, Unetwork.F_lit { input; positive } ->
        Pdn.Leaf (Pdn.S_pi { input; positive })
    | _, Unetwork.F_node m -> pdn m s
    | _, (Unetwork.F_lit _ | Unetwork.F_const _) -> broken v
  in
  (* A gate's sorted fanin gate ids, kept from its first visit for its
     last. *)
  let fanins_of = Array.make !next_alt None in
  let materialise root =
    let stack = ref [ root ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | m :: rest ->
          if circuit_id.(m) >= 0 then stack := rest
          else begin
            let gi = gate_of m in
            let fanins =
              match fanins_of.(m) with
              | Some fanins -> fanins
              | None ->
                  let fanins =
                    List.sort_uniq Int.compare
                      (fanin_gates gi.gi_node gi.gi_sol [])
                  in
                  fanins_of.(m) <- Some fanins;
                  fanins
            in
            match List.filter (fun q -> circuit_id.(q) < 0) fanins with
            | [] ->
                let pdn = pdn gi.gi_node gi.gi_sol in
                let level =
                  1
                  + List.fold_left
                      (fun acc q ->
                        max acc
                          (Logic.Vec.get circuit_gates circuit_id.(q))
                            .Domino_gate.level)
                      0 fanins
                in
                let discharge_points =
                  match options.style with
                  | Bulk -> []
                  | Soi ->
                      Pbe_analysis.discharge_points
                        ~grounded:options.grounded_at_foot pdn
                in
                circuit_id.(m) <-
                  Logic.Vec.push circuit_gates
                    {
                      Domino_gate.id = Logic.Vec.length circuit_gates;
                      pdn;
                      footed = gi.gi_footed;
                      discharge_points;
                      level;
                    };
                stack := rest
            | deps -> stack := deps @ !stack
          end
    done
  in
  let outputs =
    Array.map
      (fun (nm, fin) ->
        match fin with
        | Unetwork.F_const c ->
            (* A domino gate cannot evaluate to a constant (its dynamic
               node precharges every cycle), so constant outputs are tied
               to the rail directly: no gate, no clock load, no PBE
               exposure.  See the [Pdn.S_const] documentation. *)
            (nm, Pdn.S_const c)
        | Unetwork.F_lit { input; positive } -> (nm, Pdn.S_pi { input; positive })
        | Unetwork.F_node m ->
            materialise m;
            (nm, Pdn.S_gate circuit_id.(m)))
      (Unetwork.outputs u)
  in
  let circuit =
    {
      Circuit.source = Unetwork.source_name u;
      input_names = Unetwork.inputs u;
      gates = Logic.Vec.to_array circuit_gates;
      outputs;
    }
  in
  (* One registry flush per map call; the whole block is skipped when
     collection is off, so the disabled cost is this single branch. *)
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add m_nodes n;
    Obs.Metrics.add m_combinations !combinations;
    Obs.Metrics.add m_tuples_kept !tuples_kept;
    Obs.Metrics.add m_tuples_pruned !pruned;
    Obs.Metrics.add m_gates (Array.length circuit.Circuit.gates);
    Array.iter
      (fun g ->
        Obs.Metrics.add m_discharges
          (List.length g.Domino_gate.discharge_points))
      circuit.Circuit.gates;
    Array.iter
      (fun table ->
        let frontier =
          Array.fold_left
            (fun acc cands -> acc + List.length cands)
            0 table
        in
        Obs.Metrics.observe h_frontier frontier;
        Array.iter
          (List.iter (fun (s : Soi_rules.sol) ->
               Obs.Metrics.observe h_p_dis s.Soi_rules.p_dis;
               Obs.Metrics.observe h_par_b (if s.Soi_rules.par_b then 1 else 0)))
          table)
      tables
  end;
  ( circuit,
    {
      nodes_processed = n;
      tuples_kept = !tuples_kept;
      combinations_tried = !combinations;
      gates_formed = Array.length circuit.Circuit.gates;
    },
    (* Formed-gate lookup over the completed sweep, for the exact
       certifier: every mapping boundary has its gate by now (consumers
       and output materialisation force them), so a [None] only answers
       queries about interior nodes no consumer turned into a gate. *)
    fun id ->
      if id < 0 || id >= n then None
      else Option.map (fun g -> g.gi_value) gates.(id) )

let map_impl ?layers ~greedy ~budget ~memo ~memo_salt options u =
  Obs.Trace.with_span ~cat:"mapper" "engine.map"
    ~args:(fun () ->
      [
        ("source", Unetwork.source_name u);
        ("nodes", string_of_int (Unetwork.node_count u));
        ("greedy", string_of_bool greedy);
      ])
    (fun () ->
      map_body ~greedy ~budget ~memo ~layers ~memo_salt options u)

let map_with_gates ?(budget = Resilience.Budget.unlimited) ?memo
    ?(memo_salt = 0) options u =
  map_impl ~greedy:false ~budget ~memo ~memo_salt options u

let map ?(budget = Resilience.Budget.unlimited) ?memo ?(memo_salt = 0) options
    u =
  let circuit, stats, _gates =
    map_impl ~greedy:false ~budget ~memo ~memo_salt options u
  in
  (circuit, stats)

(* The fallback runs unbudgeted on purpose: it is linear in the network,
   so re-imposing the deadline that the full DP just blew would only
   turn a guaranteed-cheap rescue into a second failure.  It also runs
   memo-free: greedy tables obey a different boundary rule. *)
let map_greedy options u =
  let circuit, stats, _gates =
    map_impl ~greedy:true ~budget:Resilience.Budget.unlimited ~memo:None
      ~memo_salt:0 options u
  in
  (circuit, stats)

let guard ?(on_exhaust = `Degrade) options u run =
  match run () with
  | result -> Resilience.Outcome.Ok result
  | exception Resilience.Budget.Exhausted reason -> (
      match on_exhaust with
      | `Fail -> Resilience.Outcome.Failed reason
      | `Degrade ->
          Obs.Metrics.incr m_greedy_fallback;
          Resilience.Outcome.Degraded
            ( map_greedy options u,
              [ { Resilience.Outcome.stage = "mapper"; reason;
                  fallback = "greedy" } ] ))

let map_outcome ?(budget = Resilience.Budget.unlimited) ?memo ?(memo_salt = 0)
    ?on_exhaust options u =
  guard ?on_exhaust options u (fun () -> map ~budget ?memo ~memo_salt options u)

(* ---------- incremental remapping ---------- *)

let m_remap_runs = Obs.Metrics.counter "remap.runs"
let m_remap_dirty = Obs.Metrics.counter "remap.dirty"
let m_remap_clean = Obs.Metrics.counter "remap.clean"

type remap_state = {
  rs_options : options;
  rs_memo : Memo.t;  (* shared; holds the base's entries, never the edits' *)
  rs_salt : int;
  mutable rs_prev : Memo.fingerprint;
  mutable rs_u : Unetwork.t;  (* the last network mapped through the state *)
  mutable rs_result : Domino.Circuit.t * stats;  (* ... and its answer *)
  mutable rs_overlay : Memo.t;  (* ... and the entries it used beyond rs_memo *)
}

type remap_info = {
  dirty_cones : int;
  clean_cones : int;
  memo_hits : int;
  memo_misses : int;
}

let remap_init ?(budget = Resilience.Budget.unlimited) ?memo ?(memo_salt = 0)
    options u =
  let memo = match memo with Some t -> t | None -> Memo.create () in
  let result = map ~budget ~memo ~memo_salt options u in
  ( {
      rs_options = options;
      rs_memo = memo;
      rs_salt = memo_salt;
      rs_prev = Memo.fingerprint u;
      rs_u = u;
      rs_result = result;
      rs_overlay = Memo.create ~shards:1 ();
    },
    result )

(* Whole-network fast path guard: exact structural equality — names,
   inputs, outputs, the full node array.  Fingerprints alone are not
   enough here (they cover node structure but not output wiring), and
   the daemon's steady state re-parses each payload, so physical
   equality would never fire; structural equality does. *)
let unetwork_equal a b =
  Unetwork.source_name a = Unetwork.source_name b
  && Unetwork.inputs a = Unetwork.inputs b
  && Unetwork.node_count a = Unetwork.node_count b
  && Unetwork.outputs a = Unetwork.outputs b
  &&
  let n = Unetwork.node_count a in
  let rec go i =
    i >= n || (Unetwork.node a i = Unetwork.node b i && go (i + 1))
  in
  go 0

let remap ?(budget = Resilience.Budget.unlimited) st u =
  Obs.Trace.with_span ~cat:"mapper" "engine.remap"
    ~args:(fun () ->
      [
        ("source", Unetwork.source_name u);
        ("nodes", string_of_int (Unetwork.node_count u));
      ])
  @@ fun () ->
  if unetwork_equal st.rs_u u then begin
    (* Identical network: the cached answer IS the cold answer (memo
       transparency), every cone is clean, and no memo traffic happens
       — the remap costs one O(n) comparison. *)
    let clean = Unetwork.node_count u in
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.incr m_remap_runs;
      Obs.Metrics.add m_remap_clean clean
    end;
    let circuit, stats = st.rs_result in
    ( circuit,
      stats,
      { dirty_cones = 0; clean_cones = clean; memo_hits = 0; memo_misses = 0 }
    )
  end
  else begin
    let next = Memo.fingerprint u in
    let dirty, clean = Memo.dirty_counts ~prev:st.rs_prev ~next in
    (* A fresh overlay per edit: the shared memo serves the base's cones
       and is never written, the previous overlay lends the earlier
       edits' cones, and this network's misses land in the new overlay
       alone.  Replacing the old overlay afterwards bounds the state by
       one network's working set however many fresh edits arrive. *)
    let overlay = Memo.create ~shards:1 () in
    let circuit, stats, _gates =
      map_impl ~layers:(st.rs_memo, st.rs_overlay) ~greedy:false ~budget
        ~memo:(Some overlay) ~memo_salt:st.rs_salt st.rs_options u
    in
    let run = Memo.stats overlay in
    st.rs_prev <- next;
    st.rs_u <- u;
    st.rs_result <- (circuit, stats);
    st.rs_overlay <- overlay;
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.incr m_remap_runs;
      Obs.Metrics.add m_remap_dirty dirty;
      Obs.Metrics.add m_remap_clean clean
    end;
    ( circuit,
      stats,
      {
        dirty_cones = dirty;
        clean_cones = clean;
        memo_hits = run.Memo.hits;
        memo_misses = run.Memo.misses;
      } )
  end

let overlay_entries st = Memo.entry_count st.rs_overlay
