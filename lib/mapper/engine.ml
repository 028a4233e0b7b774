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

(* Which pricing core runs the combination loop.  The arena filter is a
   sound pre-filter over the boxed DP (see Arena): results are
   byte-identical either way, so [`Auto] simply asks for it whenever
   the bounds fit the packed fields. *)
type core = [ `Auto | `Arena | `Boxed ]

(* Gate formed for a unate node, before circuit ids are assigned. *)
type gate_info = {
  gi_structure : Pdn.t;
  gi_footed : bool;
  gi_level : int;
  gi_value : Cost.value;  (* formation cost, overhead and discharges included *)
  gi_disch : int;  (* discharge transistors this gate will carry *)
}

type entry = {
  table : Soi_rules.sol list array;  (* (w-1) * h_max + (h-1); Pareto set *)
  mutable gate : gate_info option;
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

(* Same handle Arena registers; the engine batches the per-skip counts
   locally and lands them here once per map call — a sharded atomic
   fetch-and-add per skipped candidate would cost more than the boxed
   combine the skip saves. *)
let m_arena_filtered = Obs.Metrics.counter "arena.filtered"

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
   combination loop the sweep looks its canonical subtree up, and a hit
   installs the reconstructed slot array verbatim.  Memoization is
   exactly transparent — same circuit, same stats — except that
   [combinations_tried] (and the tuple-budget charge) counts only
   combinations actually executed, so hits lower it.  The greedy rung
   never consults the cache: it changes the mapping-boundary rule, so
   its tables live in a different world. *)
(* Per-node arming threshold for the packed pre-filter: a node pays
   [begin_node] (mirror reset + one pack per fanin option) before its
   first candidate, so nodes with fewer fanin-option pairs than this
   cannot win the reset back in skipped combines and price boxed.
   Tuned on the paper suite (k2/c880/des): 32 is the knee — below it
   small-node overhead erodes the filter's win, above it large cones
   lose skips.  Pure routing: results and counts are identical. *)
let arena_min_pairs = 32

let map_body ~greedy ~budget ~memo ~layers ~memo_salt ~core options u =
  if options.w_max < 2 || options.h_max < 2 then
    invalid_arg "Engine.map: w_max and h_max must be at least 2";
  if options.pareto_width < 1 then
    invalid_arg "Engine.map: pareto_width must be at least 1";
  (* The packed pre-filter (see Arena): on by default whenever the
     bounds fit the packed fields.  The greedy rung stays boxed — it is
     already linear and its tiny tables would never amortise the mirror
     bookkeeping. *)
  let filter_on =
    (not greedy)
    &&
    match core with
    | `Boxed -> false
    | `Auto -> Arena.eligible ~w_max:options.w_max ~h_max:options.h_max
    | `Arena ->
        if not (Arena.eligible ~w_max:options.w_max ~h_max:options.h_max)
        then
          invalid_arg
            (Printf.sprintf
               "Engine.map: ~core:`Arena requires packable bounds (W<=%d, \
                H<=%d, W*H<=%d); got W=%d H=%d"
               Arena.Packed.max_w Arena.Packed.max_h Arena.max_slots
               options.w_max options.h_max)
        else true
  in
  let actx = Arena.create () in
  let model = options.cost in
  let n = Unetwork.node_count u in
  let fanouts = Unetwork.fanout_counts u in
  let anet = Arena.Net.of_unetwork u in
  let entries =
    Array.init n (fun _ ->
        { table = Array.make (options.w_max * options.h_max) []; gate = None })
  in
  let combinations = ref 0 in
  (* Tuples rejected on arrival, evicted by a dominating newcomer, or
     truncated off the frontier cap.  The accounting is hoisted behind
     [counting] so the disabled hot path runs the same instructions as
     an uninstrumented build. *)
  let pruned = ref 0 in
  (* Candidates the packed filter skipped (a subset of [pruned]);
     batched into [arena.filtered] after the sweep. *)
  let filtered = ref 0 in
  let counting = Obs.Metrics.enabled () in

  let slot w h = ((w - 1) * options.h_max) + (h - 1) in

  let key s = Cost.key model s.Soi_rules.value in
  (* Truncate a sorted frontier to [k] tuples in one pass. *)
  let rec take k xs =
    match xs with x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> []
  in
  (* [a] dominates [b] when every completion of [b] is matched or beaten
     by the same completion of [a].  That needs agreement on the shape
     flags the combinators read ([par_b]), the footedness coordinate
     ([has_pi]: a footless tuple completes into a cheaper gate, so it may
     dominate a footed one but never the reverse), and a componentwise
     comparison of the cost coordinates: [weighted] composes by addition
     but [depth] by [max], so comparing the collapsed key would wrongly
     discard a deeper-but-lighter tuple that wins after a later [max].
     This mirrors [Opt.Backend.dominates] — the fuzzer's exact oracle
     proved the old collapsed-key, foot-blind predicate drops optimal
     tuples (see test_engine's frontier regression). *)
  let dominates a b =
    a.Soi_rules.par_b = b.Soi_rules.par_b
    && ((not a.Soi_rules.has_pi) || b.Soi_rules.has_pi)
    && a.Soi_rules.value.Cost.weighted <= b.Soi_rules.value.Cost.weighted
    && (model.Cost.depth_factor = 0
       || a.Soi_rules.value.Cost.depth <= b.Soi_rules.value.Cost.depth)
    && a.Soi_rules.p_dis <= b.Soi_rules.p_dis
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
  let compare_inline a b =
    match compare (key a) (key b) with
    | 0 -> (
        match compare a.Soi_rules.p_dis b.Soi_rules.p_dis with
        | 0 -> (
            match compare a.Soi_rules.value.Cost.raw b.Soi_rules.value.Cost.raw with
            (* Footless last: at an equal inline key the footed tuple is
               the one only this order can save (dominance already
               prefers footless on exact ties of every coordinate). *)
            | 0 -> compare b.Soi_rules.has_pi a.Soi_rules.has_pi
            | c -> c)
        | c -> c)
    | c -> c
  in
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
  (* Returns [true] iff the slot's frontier actually changed — the
     mirror refresh below keys on it, so rejected candidates (bound or
     dominance) cost no repacking. *)
  let consider entry (s : Soi_rules.sol) =
    if s.Soi_rules.w <= options.w_max && s.Soi_rules.h <= options.h_max then begin
      let i = slot s.Soi_rules.w s.Soi_rules.h in
      let kept = entry.table.(i) in
      if List.exists (fun old -> dominates old s) kept then begin
        if counting then incr pruned;
        false
      end
      else begin
        let survivors = List.filter (fun old -> not (dominates s old)) kept in
        if counting then
          pruned := !pruned + (List.length kept - List.length survivors);
        let sorted = List.sort compare_inline (s :: survivors) in
        let capped = cap_frontier sorted in
        (if counting then
           pruned := !pruned + (List.length sorted - List.length capped));
        entry.table.(i) <- capped;
        true
      end
    end
    else begin
      if counting then incr pruned;
      false
    end
  in
  (* Per-node filter gate.  [begin_node] costs a mirror reset plus one
     pack per fanin option; a node with only a handful of candidate
     pairs cannot win that back in skipped combines, so the filter only
     arms on nodes with enough pairs to amortise it (the gate is pure
     routing — counts and results are byte-identical either way). *)
  let node_filter = ref false in
  (* Boxed [consider] plus the mirror refresh the filter depends on: a
     candidate that changed its slot's frontier makes the mirror stale,
     so re-pack that slot into the scratch mirror. *)
  let consider_refresh entry (s : Soi_rules.sol) =
    if consider entry s && !node_filter then begin
      let i = slot s.Soi_rules.w s.Soi_rules.h in
      Arena.refresh_slot actx ~slot:i entry.table.(i)
    end
  in
  (* Insert-verdict fast path: the filter proved the candidate is in
     bounds and survives dominance against the slot's (clean) mirror,
     so the boxed dominance re-check is skipped and the scalars come
     from the exact packed words — the packed combination is the only
     scalar arithmetic a survivor pays. *)
  let consider_insert entry ~c0 ~c1 structure =
    let s = Arena.Packed.unpack_with ~structure ~w0:c0 ~w1:c1 in
    let i = slot s.Soi_rules.w s.Soi_rules.h in
    let kept = entry.table.(i) in
    let survivors = List.filter (fun old -> not (dominates s old)) kept in
    if counting then
      pruned := !pruned + (List.length kept - List.length survivors);
    let sorted = List.sort compare_inline (s :: survivors) in
    let capped = cap_frontier sorted in
    (if counting then
       pruned := !pruned + (List.length sorted - List.length capped));
    entry.table.(i) <- capped;
    Arena.refresh_slot actx ~slot:i capped
  in
  let boxed_combine op s0 s1 =
    match op with
    | `Or -> Soi_rules.combine_or model s0 s1
    | `And_soi -> Soi_rules.combine_and_soi model ~top:s0 ~bottom:s1
    | `And_soi_rev -> Soi_rules.combine_and_soi model ~top:s1 ~bottom:s0
    | `And_bulk -> Soi_rules.combine_and_bulk model ~top:s0 ~bottom:s1
  in
  let structure_of op (s0 : Soi_rules.sol) (s1 : Soi_rules.sol) =
    match op with
    | `Or ->
        Domino.Pdn.Parallel (s0.Soi_rules.structure, s1.Soi_rules.structure)
    | `And_soi | `And_bulk ->
        Domino.Pdn.Series (s0.Soi_rules.structure, s1.Soi_rules.structure)
    | `And_soi_rev ->
        Domino.Pdn.Series (s1.Soi_rules.structure, s0.Soi_rules.structure)
  in
  (* One candidate end to end: Skip_pruned only bumps the pruned count;
     Insert materialises from the packed words; anything unpackable —
     or every candidate when the filter is off — prices fully boxed. *)
  let price entry op s0 s1 i0 i1 =
    if not !node_filter then consider_refresh entry (boxed_combine op s0 s1)
    else
      match
        Arena.candidate actx ~depth_factor:model.Cost.depth_factor
          ~clocked:model.Cost.clocked ~discharge:model.Cost.discharge
          ~grounded:options.grounded_at_foot ~pareto:options.pareto_width ~op
          ~i0 ~i1
      with
      | Arena.Skip_pruned ->
          if counting then begin
            incr pruned;
            incr filtered
          end
      | Arena.Insert { c0; c1 } ->
          consider_insert entry ~c0 ~c1 (structure_of op s0 s1)
      | Arena.Run_boxed -> consider_refresh entry (boxed_combine op s0 s1)
  in

  (* The gate formed over one inline tuple: overhead for the foot,
     uncommitted discharges when feet are left floating, one level up. *)
  let form_info (s : Soi_rules.sol) =
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
      gi_structure = s.Soi_rules.structure;
      gi_footed = footed;
      gi_level = value.Cost.depth;
      gi_value = value;
      gi_disch = s.Soi_rules.disch + extra_disch;
    }
  in

  (* The gate a node forms, computed after its table is complete. *)
  let form_gate id =
    let entry = entries.(id) in
    let best = ref None in
    Array.iter
      (fun cands ->
        List.iter
          (fun (s : Soi_rules.sol) ->
            let info = form_info s in
            let better =
              match !best with
              | None -> true
              | Some b -> Cost.compare_values model info.gi_value b.gi_value < 0
            in
            if better then best := Some info)
          cands)
      entry.table;
    match !best with
    | Some info ->
        entry.gate <- Some info;
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
     synthetic gate id (>= node count) so the winning structure names the
     exact gate it was costed with and [materialise] emits that one. *)
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
    else
      match entries.(id).gate with Some g -> g | None -> form_gate id
  in

  (* Candidate tuples a fanin offers to its consumer.  The sweep works
     on the flat [Arena.Net] fanin encoding, so dispatch here is integer
     tests rather than a boxed [fin] match. *)
  let options_of_enc enc =
    if Arena.Net.is_const enc then
      (* Unreachable via the public constructors: [Unetwork.mk] folds
         constant fanins away at build time, so only hand-assembled
         node records could trip this. *)
      invalid_arg
        "Engine.map: constant fanin reached the DP sweep; unate networks \
         from Unetwork.of_network/with_structure fold constants away"
    else if not (Arena.Net.is_node enc) then
      [
        Soi_rules.leaf_pi model ~input:(Arena.Net.lit_input enc)
          ~positive:(Arena.Net.lit_positive enc);
      ]
    else begin
      let m = enc in
        let shared = fanouts.(m) > 1 || greedy in
        if shared then begin
          let gi = gate_of m in
          [
            Soi_rules.leaf_gate model ~node:m ~level:gi.gi_level
              ~carried:Cost.zero ~carried_disch:0;
          ]
        end
        else if model.Cost.depth_factor = 0 then begin
          (* Single commitment is exact here: the formed key totally
             orders the candidates (depth does not enter the key). *)
          let gi = gate_of m in
          let gate_sol =
            Soi_rules.leaf_gate model ~node:m ~level:gi.gi_level
              ~carried:gi.gi_value ~carried_disch:gi.gi_disch
          in
          Array.fold_left
            (fun acc cands -> List.rev_append cands acc)
            [ gate_sol ] entries.(m).table
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
                    let info = form_info s in
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
                      Soi_rules.leaf_gate model ~node:fid ~level:info.gi_level
                        ~carried:info.gi_value ~carried_disch:info.gi_disch
                      :: acc
                    end)
                  acc cands)
              [] entries.(m).table
          in
          Array.fold_left
            (fun acc cands -> List.rev_append cands acc)
            alts entries.(m).table
        end
    end
  in

  (* The memo session, opened only for full (non-greedy) sweeps with a
     table supplied.  [boundary_level] forms the boundary gate on demand,
     exactly as [options_of_fin] would moments later.  Depth objectives
     bypass the cache: their tables reference the run-local synthetic
     gate ids of formed-gate alternatives, which are meaningless in any
     other run (see [register_alt]).  [layers] = [(shared, prev)] makes
     [memo] a remap overlay ({!Memo.start}). *)
  let mrun =
    match memo with
    | Some tbl when (not greedy) && model.Cost.depth_factor = 0 ->
        let under, prev =
          match layers with
          | Some (shared, prev) -> (Some shared, Some prev)
          | None -> (None, None)
        in
        Some
          (Memo.start ?under ?prev tbl ~u ~fanouts ~model ~w_max:options.w_max
             ~h_max:options.h_max
             ~soi:(options.style = Soi)
             ~both_orders:options.both_orders
             ~grounded:options.grounded_at_foot ~pareto:options.pareto_width
             ~salt:memo_salt
             ~boundary_level:(fun m -> (gate_of m).gi_level))
    | _ -> None
  in

  (* Main DP sweep in topological order.  Budget checkpoints: every
     combination charges the tuple allowance, and the wall clock is
     consulted once per node plus every 2048 combinations, so a tripped
     budget surfaces within a bounded amount of further work.  Memo hits
     skip a node's combination loop (and its budget charge) entirely. *)
  for id = 0 to n - 1 do
    Resilience.Budget.check_deadline budget;
    let entry = entries.(id) in
    match (match mrun with Some r -> Memo.find r id | None -> None) with
    | Some table -> Array.blit table 0 entry.table 0 (Array.length table)
    | None ->
        let opts0 = options_of_enc (Arena.Net.fin0 anet id) in
        let opts1 = options_of_enc (Arena.Net.fin1 anet id) in
        node_filter :=
          filter_on
          && List.length opts0 * List.length opts1 >= arena_min_pairs;
        if !node_filter then
          Arena.begin_node actx ~w_max:options.w_max ~h_max:options.h_max
            ~opts0 ~opts1;
        let is_and = Arena.Net.is_and anet id in
        let i0 = ref (-1) in
        List.iter
          (fun s0 ->
            incr i0;
            let i1 = ref (-1) in
            List.iter
              (fun s1 ->
                incr i1;
                incr combinations;
                Resilience.Budget.charge_tuples budget 1;
                if !combinations land 2047 = 0 then
                  Resilience.Budget.check_deadline budget;
                if not is_and then price entry `Or s0 s1 !i0 !i1
                else
                  match options.style with
                  | Bulk -> price entry `And_bulk s0 s1 !i0 !i1
                  | Soi ->
                      if options.both_orders then begin
                        price entry `And_soi s0 s1 !i0 !i1;
                        price entry `And_soi_rev s0 s1 !i0 !i1
                      end
                      else begin
                        let top, _ = Soi_rules.heuristic_and_order s0 s1 in
                        let op =
                          if top == s0 then `And_soi else `And_soi_rev
                        in
                        price entry op s0 s1 !i0 !i1
                      end)
              opts1)
          opts0;
        (match mrun with Some r -> Memo.store r id entry.table | None -> ())
  done;

  (* Close the memo session: fold its counts into the table and the
     cache.* metrics, and leave a zero-duration span carrying them. *)
  (match mrun with
  | None -> ()
  | Some r ->
      let hits, misses, collisions = Memo.finish r in
      Obs.Trace.with_span ~cat:"mapper" "engine.memo"
        ~args:(fun () ->
          [
            ("hits", string_of_int hits);
            ("misses", string_of_int misses);
            ("collisions", string_of_int collisions);
          ])
        (fun () -> ()));

  (* Materialise the gates reachable from the primary outputs. *)
  let circuit_gates = Logic.Vec.create () in
  let circuit_id : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let materialise root =
    let stack = ref [ root ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | m :: rest ->
          if Hashtbl.mem circuit_id m then stack := rest
          else begin
            let gi = gate_of m in
            let deps =
              List.filter
                (fun q -> not (Hashtbl.mem circuit_id q))
                (Pdn.gate_fanins gi.gi_structure)
            in
            match deps with
            | [] ->
                let remap = function
                  | Pdn.S_gate q -> Pdn.S_gate (Hashtbl.find circuit_id q)
                  | (Pdn.S_pi _ | Pdn.S_const _) as s -> s
                in
                let pdn = Pdn.map_signals remap gi.gi_structure in
                let level =
                  1
                  + List.fold_left
                      (fun acc q ->
                        max acc
                          (Logic.Vec.get circuit_gates q).Domino_gate.level)
                      0 (Pdn.gate_fanins pdn)
                in
                let discharge_points =
                  match options.style with
                  | Bulk -> []
                  | Soi ->
                      Pbe_analysis.discharge_points
                        ~grounded:options.grounded_at_foot pdn
                in
                let id' =
                  Logic.Vec.push circuit_gates
                    {
                      Domino_gate.id = Logic.Vec.length circuit_gates;
                      pdn;
                      footed = gi.gi_footed;
                      discharge_points;
                      level;
                    }
                in
                Hashtbl.replace circuit_id m id';
                stack := rest
            | _ -> stack := deps @ !stack
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
            (nm, Pdn.S_gate (Hashtbl.find circuit_id m)))
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
  (* Tuples that survived in the final tables — evicted and superseded
     entries do not count. *)
  let tuples_kept =
    Array.fold_left
      (fun acc e ->
        Array.fold_left (fun acc cands -> acc + List.length cands) acc e.table)
      0 entries
  in
  (* One registry flush per map call; the whole block is skipped when
     collection is off, so the disabled cost is this single branch. *)
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add m_nodes n;
    Obs.Metrics.add m_combinations !combinations;
    Obs.Metrics.add m_tuples_kept tuples_kept;
    Obs.Metrics.add m_tuples_pruned !pruned;
    Obs.Metrics.add m_arena_filtered !filtered;
    Obs.Metrics.add m_gates (Array.length circuit.Circuit.gates);
    Array.iter
      (fun g ->
        Obs.Metrics.add m_discharges
          (List.length g.Domino_gate.discharge_points))
      circuit.Circuit.gates;
    Array.iter
      (fun e ->
        let frontier =
          Array.fold_left
            (fun acc cands -> acc + List.length cands)
            0 e.table
        in
        Obs.Metrics.observe h_frontier frontier;
        Array.iter
          (List.iter (fun (s : Soi_rules.sol) ->
               Obs.Metrics.observe h_p_dis s.Soi_rules.p_dis;
               Obs.Metrics.observe h_par_b (if s.Soi_rules.par_b then 1 else 0)))
          e.table)
      entries
  end;
  ( circuit,
    {
      nodes_processed = n;
      tuples_kept;
      combinations_tried = !combinations;
      gates_formed = Array.length circuit.Circuit.gates;
    },
    (* Formed-gate lookup over the completed sweep, for the exact
       certifier: every mapping boundary has its gate by now (consumers
       and output materialisation force them), so a [None] only answers
       queries about interior nodes no consumer turned into a gate. *)
    (fun id ->
      if id < 0 || id >= n then None
      else Option.map (fun g -> g.gi_value) entries.(id).gate),
    (* The final per-node slot arrays, for the differential harness. *)
    Array.map (fun e -> e.table) entries )

let map_impl ?layers ~greedy ~budget ~memo ~memo_salt ~core options u =
  Obs.Trace.with_span ~cat:"mapper" "engine.map"
    ~args:(fun () ->
      [
        ("source", Unetwork.source_name u);
        ("nodes", string_of_int (Unetwork.node_count u));
        ("greedy", string_of_bool greedy);
      ])
    (fun () ->
      map_body ~greedy ~budget ~memo ~layers ~memo_salt ~core options u)

let map_with_gates ?(budget = Resilience.Budget.unlimited) ?memo
    ?(memo_salt = 0) ?(core = `Auto) options u =
  let circuit, stats, gates, _tables =
    map_impl ~greedy:false ~budget ~memo ~memo_salt ~core options u
  in
  (circuit, stats, gates)

let map ?(budget = Resilience.Budget.unlimited) ?memo ?(memo_salt = 0)
    ?(core = `Auto) options u =
  let circuit, stats, _gates, _tables =
    map_impl ~greedy:false ~budget ~memo ~memo_salt ~core options u
  in
  (circuit, stats)

let map_tables ?(budget = Resilience.Budget.unlimited) ?memo ?(memo_salt = 0)
    ?(core = `Auto) options u =
  let circuit, stats, _gates, tables =
    map_impl ~greedy:false ~budget ~memo ~memo_salt ~core options u
  in
  (circuit, stats, tables)

(* The fallback runs unbudgeted on purpose: it is linear in the network,
   so re-imposing the deadline that the full DP just blew would only
   turn a guaranteed-cheap rescue into a second failure.  It also runs
   memo-free: greedy tables obey a different boundary rule. *)
let map_greedy options u =
  let circuit, stats, _gates, _tables =
    map_impl ~greedy:true ~budget:Resilience.Budget.unlimited ~memo:None
      ~memo_salt:0 ~core:`Boxed options u
  in
  (circuit, stats)

let map_outcome ?(budget = Resilience.Budget.unlimited) ?memo ?(memo_salt = 0)
    ?(core = `Auto) ?(on_exhaust = `Degrade) options u =
  match map ~budget ?memo ~memo_salt ~core options u with
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

(* ---------- incremental remapping ---------- *)

let m_remap_runs = Obs.Metrics.counter "remap.runs"
let m_remap_dirty = Obs.Metrics.counter "remap.dirty"
let m_remap_clean = Obs.Metrics.counter "remap.clean"

type remap_state = {
  rs_options : options;
  rs_memo : Memo.t;  (* shared; holds the base's entries, never the edits' *)
  rs_salt : int;
  rs_core : core;
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
    ?(core = `Auto) options u =
  let memo = match memo with Some t -> t | None -> Memo.create () in
  let result = map ~budget ~memo ~memo_salt ~core options u in
  ( {
      rs_options = options;
      rs_memo = memo;
      rs_salt = memo_salt;
      rs_core = core;
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
    let circuit, stats, _gates, _tables =
      map_impl ~layers:(st.rs_memo, st.rs_overlay) ~greedy:false ~budget
        ~memo:(Some overlay) ~memo_salt:st.rs_salt ~core:st.rs_core
        st.rs_options u
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
