(* Incremental remapping (Engine.remap) and the dirty-cone-only memo
   invalidation it rides on (Memo.fingerprint / dirty_cones): a warm
   remap after a seeded local edit is byte-identical (Circuit.dump) to
   a cold full map of the edited network, the warm table is never
   rebuilt or flushed, and only dirty cones pay recomputation. *)

open Mapper

let equiv_verdict = function Logic.Equiv.Equivalent -> true | _ -> false

let stats_sans_combos (s : Engine.stats) =
  (s.Engine.nodes_processed, s.Engine.tuples_kept, s.Engine.gates_formed)

(* ------------------------------------------------------------------ *)
(* Fingerprints: deep, ordered, identity-included.                     *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_self () =
  let u = Algorithms.prepare (Gen.Suite.build_exn "cordic") in
  let fp = Memo.fingerprint u in
  let dirty, clean = Memo.dirty_counts ~prev:fp ~next:fp in
  Alcotest.(check int) "no dirty cones against self" 0 dirty;
  Alcotest.(check int) "all cones clean" (Unate.Unetwork.node_count u) clean

(* The memo's keys ignore leaf identity (a & b and p & q share a cached
   table); fingerprints must NOT — a rewired literal dirties the cone
   even though its memo key is unchanged. *)
let build_and2 i j =
  let b = Logic.Builder.create ~name:"pair" () in
  let w = Array.init 3 (fun k -> Logic.Builder.input b (Printf.sprintf "x%d" k)) in
  Logic.Builder.output b "f" (Logic.Builder.and2 b w.(i) w.(j));
  Logic.Builder.network b

let test_fingerprint_identity () =
  let u01 = Algorithms.prepare (build_and2 0 1) in
  let u02 = Algorithms.prepare (build_and2 0 2) in
  let dirty, _ =
    Memo.dirty_counts ~prev:(Memo.fingerprint u01) ~next:(Memo.fingerprint u02)
  in
  Alcotest.(check int) "rewired literal dirties the cone" 1 dirty;
  match (Memo.fingerprint_hex (Memo.fingerprint u01) 0,
         Memo.fingerprint_hex (Memo.fingerprint u02) 0) with
  | Some a, Some b ->
      Alcotest.(check bool) "distinct hex signatures" true (a <> b);
      Alcotest.(check int) "32 hex digits" 32 (String.length a)
  | _ -> Alcotest.fail "fingerprint_hex on node 0"

(* ------------------------------------------------------------------ *)
(* Warm remap == cold map, byte for byte, across seeded edits.         *)
(* ------------------------------------------------------------------ *)

let check_remap ~ctx ~opts st u_edited =
  let warm_c, warm_s, info = Engine.remap st u_edited in
  let cold_c, cold_s = Engine.map opts u_edited in
  if Domino.Circuit.dump warm_c <> Domino.Circuit.dump cold_c then
    Alcotest.failf "%s: warm remap not byte-identical to cold map" ctx;
  if stats_sans_combos warm_s <> stats_sans_combos cold_s then
    Alcotest.failf "%s: stats differ beyond combinations_tried" ctx;
  if warm_s.Engine.combinations_tried > cold_s.Engine.combinations_tried then
    Alcotest.failf "%s: warm remap tried more combinations than cold" ctx;
  let n = Unate.Unetwork.node_count u_edited in
  if info.Engine.dirty_cones + info.Engine.clean_cones <> n then
    Alcotest.failf "%s: dirty (%d) + clean (%d) != nodes (%d)" ctx
      info.Engine.dirty_cones info.Engine.clean_cones n;
  (warm_c, info)

let test_seeded_edits_suite () =
  List.iter
    (fun bench ->
      let u0 = Algorithms.prepare (Gen.Suite.build_exn bench) in
      let opts = Engine.default_options in
      let st, (c0, _) = Engine.remap_init opts u0 in
      let cold0, _ = Engine.map opts u0 in
      if Domino.Circuit.dump c0 <> Domino.Circuit.dump cold0 then
        Alcotest.failf "%s: remap_init differs from plain map" bench;
      (* a chain of edits, each remapped warm against the evolving state *)
      let u = ref u0 in
      for seed = 1 to 8 do
        u := Check.Edit.apply ~seed:(seed * 7919) !u;
        let ctx =
          Printf.sprintf "%s seed %d (%s)" bench seed
            (Check.Edit.describe ~seed:(seed * 7919) !u)
        in
        let warm_c, _ = check_remap ~ctx ~opts st !u in
        (* the Equiv oracle on a slice: the remapped circuit implements
           the edited network *)
        if seed mod 4 = 0 then begin
          let v =
            Domino.Circuit.equivalent_exact warm_c
              (Unate.Unetwork.to_network !u)
          in
          if not (equiv_verdict v) then
            Alcotest.failf "%s: remapped circuit not equivalent" ctx
        end
      done)
    [ "z4ml"; "mux"; "cordic" ]

(* A remap with no edit at all: everything clean, nothing recomputed. *)
(* A no-op remap takes the whole-network fast path: the cached circuit
   comes back after one structural comparison, all cones clean, zero
   memo traffic.  The network is re-prepared from scratch so the test
   proves the path fires on structural (not physical) equality — the
   daemon's steady state, where every payload is re-parsed. *)
let test_noop_remap () =
  let u = Algorithms.prepare (Gen.Suite.build_exn "cordic") in
  let st, (c0, _) = Engine.remap_init Engine.default_options u in
  let u' = Algorithms.prepare (Gen.Suite.build_exn "cordic") in
  let c1, _, info = Engine.remap st u' in
  Alcotest.(check bool) "identical circuit" true
    (Domino.Circuit.dump c0 = Domino.Circuit.dump c1);
  Alcotest.(check int) "no dirty cones" 0 info.Engine.dirty_cones;
  Alcotest.(check int) "no memo misses" 0 info.Engine.memo_misses;
  Alcotest.(check int) "no memo hits (fast path)" 0 info.Engine.memo_hits;
  Alcotest.(check int) "all cones clean"
    (Unate.Unetwork.node_count u') info.Engine.clean_cones

(* ------------------------------------------------------------------ *)
(* Adversarial: an edit inside a shared-fanout cone.                   *)
(* ------------------------------------------------------------------ *)

(* g = x0 & x1 feeds two consumers (a mapping boundary); rewiring g's
   fanin changes the shared cone's signature, so the boundary node AND
   both consumers above it must go dirty — a fingerprint that stopped
   at mapping boundaries would wrongly keep the consumers clean. *)
let build_shared () =
  let b = Logic.Builder.create ~name:"shared" () in
  let x = Array.init 4 (fun k -> Logic.Builder.input b (Printf.sprintf "x%d" k)) in
  let g = Logic.Builder.and2 b x.(0) x.(1) in
  Logic.Builder.output b "f" (Logic.Builder.or2 b g x.(2));
  Logic.Builder.output b "h" (Logic.Builder.and2 b g x.(3));
  Logic.Builder.network b

let test_shared_fanout_edit () =
  let u0 = Algorithms.prepare (build_shared ()) in
  let fanouts = Unate.Unetwork.fanout_counts u0 in
  let shared =
    let found = ref (-1) in
    Array.iteri (fun id c -> if c > 1 && !found < 0 then found := id) fanouts;
    !found
  in
  Alcotest.(check bool) "network has a shared node" true (shared >= 0);
  let opts = Engine.default_options in
  let st, _ = Engine.remap_init opts u0 in
  (* rewire the shared node's fanin1 from x1 to x2 *)
  let n = Unate.Unetwork.node_count u0 in
  let nodes = Array.init n (Unate.Unetwork.node u0) in
  nodes.(shared) <-
    {
      (nodes.(shared)) with
      Unate.Unetwork.fanin1 =
        Unate.Unetwork.F_lit { Unate.Unetwork.input = 2; positive = true };
    };
  let u1 =
    Unate.Unetwork.with_structure u0 ~nodes
      ~outputs:(Unate.Unetwork.outputs u0)
  in
  let _, info = check_remap ~ctx:"shared-fanout edit" ~opts st u1 in
  (* the edited shared cone and every consumer cone above it are dirty *)
  Alcotest.(check bool)
    (Printf.sprintf "shared edit dirties consumers too (%d dirty)" info.Engine.dirty_cones)
    true
    (info.Engine.dirty_cones >= 2)

(* ------------------------------------------------------------------ *)
(* Dirty-cone-only invalidation: the warm table survives edits.        *)
(* ------------------------------------------------------------------ *)

let test_dirty_cone_only_invalidation () =
  let u0 = Algorithms.prepare (Gen.Suite.build_exn "cordic") in
  let memo = Memo.create () in
  let opts = Engine.default_options in
  let st, _ = Engine.remap_init ~memo opts u0 in
  let entries_cold = Memo.entry_count memo in
  Alcotest.(check bool) "cold map populated the table" true (entries_cold > 0);
  let u1 = Check.Edit.apply ~seed:42 u0 in
  let _, _, info = Engine.remap st u1 in
  (* nothing was flushed: the table only ever grows *)
  Alcotest.(check bool) "no global rebuild (entries kept)" true
    (Memo.entry_count memo >= entries_cold);
  (* only dirty cones may miss: every clean cone's lookup hits *)
  Alcotest.(check bool)
    (Printf.sprintf "misses (%d) bounded by dirty cones (%d)"
       info.Engine.memo_misses info.Engine.dirty_cones)
    true
    (info.Engine.memo_misses <= info.Engine.dirty_cones);
  (* warm splicing actually happened (cordic edits are local) *)
  if info.Engine.clean_cones > 0 then
    Alcotest.(check bool) "clean cones spliced from cache" true
      (info.Engine.memo_hits > 0)

(* ------------------------------------------------------------------ *)
(* Edits never grow the shared memo: the per-baseline overlay.         *)
(* ------------------------------------------------------------------ *)

(* K fresh edits of one base, each remapped against the base's state:
   every answer is a cold map's, and the shared table never moves. *)
let test_fresh_edits_leave_shared_memo () =
  let u0 = Algorithms.prepare (Gen.Suite.build_exn "c880") in
  let memo = Memo.create () in
  let opts = Engine.default_options in
  let st, _ = Engine.remap_init ~memo opts u0 in
  let entries0 = Memo.entry_count memo in
  Alcotest.(check int) "no overlay after init" 0 (Engine.overlay_entries st);
  for seed = 1 to 16 do
    let u = Check.Edit.apply ~seed:(seed * 104729) u0 in
    ignore (check_remap ~ctx:(Printf.sprintf "fresh edit %d" seed) ~opts st u);
    Alcotest.(check int)
      (Printf.sprintf "edit %d: shared memo unchanged" seed)
      entries0 (Memo.entry_count memo);
    if Engine.overlay_entries st > Unate.Unetwork.node_count u then
      Alcotest.failf "edit %d: overlay holds %d entries for %d nodes" seed
        (Engine.overlay_entries st) (Unate.Unetwork.node_count u)
  done

(* The memory bound over a long edit loop: after 1,000 fresh edits the
   shared table still holds exactly the base's entries, and the overlay
   no more entries than the base has nodes. *)
let test_thousand_edits_bounded () =
  let u0 = Algorithms.prepare (Gen.Suite.build_exn "c880") in
  let memo = Memo.create () in
  let opts = Engine.default_options in
  let st, _ = Engine.remap_init ~memo opts u0 in
  let entries0 = Memo.entry_count memo in
  for seed = 1 to 1000 do
    let u = Check.Edit.apply ~seed u0 in
    let warm, _, _ = Engine.remap st u in
    if seed mod 100 = 0 then begin
      let cold, _ = Engine.map opts u in
      if Domino.Circuit.dump warm <> Domino.Circuit.dump cold then
        Alcotest.failf "edit %d: warm remap not byte-identical to cold" seed
    end
  done;
  Alcotest.(check int) "shared memo = its size after remap_init" entries0
    (Memo.entry_count memo);
  Alcotest.(check bool)
    (Printf.sprintf "overlay (%d entries) within the base's %d nodes"
       (Engine.overlay_entries st) (Unate.Unetwork.node_count u0))
    true
    (Engine.overlay_entries st <= Unate.Unetwork.node_count u0)

(* An accumulating chain e1, e1+e2, e1+e2+e3: the second remap copies
   e1's cones up from the first overlay, so the third still finds them
   and misses no more than its own dirty cones. *)
let test_accumulating_chain_stays_warm () =
  let u0 = Algorithms.prepare (Gen.Suite.build_exn "c880") in
  let memo = Memo.create () in
  let opts = Engine.default_options in
  let st, _ = Engine.remap_init ~memo opts u0 in
  let u1 = Check.Edit.apply ~seed:11 u0 in
  let u2 = Check.Edit.apply ~seed:22 u1 in
  let u3 = Check.Edit.apply ~seed:33 u2 in
  let _, i1 = check_remap ~ctx:"e1" ~opts st u1 in
  let _, i2 = check_remap ~ctx:"e1+e2" ~opts st u2 in
  let _, i3 = check_remap ~ctx:"e1+e2+e3" ~opts st u3 in
  List.iter
    (fun (ctx, (i : Engine.remap_info)) ->
      if i.Engine.memo_misses > i.Engine.dirty_cones then
        Alcotest.failf "%s: %d misses exceed %d dirty cones" ctx
          i.Engine.memo_misses i.Engine.dirty_cones)
    [ ("e1", i1); ("e1+e2", i2); ("e1+e2+e3", i3) ];
  Alcotest.(check bool) "the chain really edited" true (i1.Engine.dirty_cones > 0)

(* Depth objectives bypass the memo; remap must still be correct. *)
let test_depth_model_remap () =
  let u0 = Algorithms.prepare (Gen.Suite.build_exn "z4ml") in
  let opts = { Engine.default_options with Engine.cost = Cost.depth_soi } in
  let st, _ = Engine.remap_init opts u0 in
  let u1 = Check.Edit.apply ~seed:5 u0 in
  let _, info = check_remap ~ctx:"depth-model remap" ~opts st u1 in
  Alcotest.(check int) "no memo traffic under depth models" 0
    (info.Engine.memo_hits + info.Engine.memo_misses)

(* The driver's remap under a tripped budget: whether the base's build
   or the remap against a built base trips, [on_exhaust] decides as it
   does for a map, and the base keeps the state it had, so the next
   remap is still a cold map's twin. *)
let test_remap_budget () =
  let flow = Algorithms.Soi_domino_map in
  let u0 = Algorithms.prepare (Gen.Suite.build_exn "c880") in
  let u1 = Check.Edit.apply ~seed:7 u0 in
  let tiny () = Resilience.Budget.make ~max_tuples:1 () in
  let dump (r : Algorithms.result) = Domino.Circuit.dump r.Algorithms.circuit in
  let cold u = dump (Algorithms.map flow u) in
  let greedy =
    match Algorithms.map_outcome ~budget:(tiny ()) flow u1 with
    | Resilience.Outcome.Degraded (r, _) -> dump r
    | _ -> Alcotest.fail "a one-tuple map did not degrade"
  in
  let b = Algorithms.base flow u0 in
  let trips what =
    (match Algorithms.remap ~budget:(tiny ()) ~on_exhaust:`Fail b u1 with
    | Resilience.Outcome.Failed _ -> ()
    | _ -> Alcotest.failf "%s: a tripped remap did not fail under `Fail" what);
    match Algorithms.remap ~budget:(tiny ()) b u1 with
    | Resilience.Outcome.Degraded (r, _ :: _) ->
        Alcotest.(check string) (what ^ ": degraded remap = degraded map")
          greedy (dump r);
        Alcotest.(check bool) (what ^ ": no remap verdict") true
          (r.Algorithms.remap = None)
    | _ -> Alcotest.failf "%s: a tripped remap did not degrade" what
  in
  trips "base build";
  Alcotest.(check bool) "a tripped build leaves the base unbuilt" false
    (Algorithms.built b);
  let u2 = Check.Edit.apply ~seed:8 u0 in
  (match Algorithms.remap b u2 with
  | Resilience.Outcome.Ok r ->
      Alcotest.(check string) "remap after tripped builds = cold map" (cold u2)
        (dump r)
  | _ -> Alcotest.fail "an unbudgeted remap did not map");
  Alcotest.(check bool) "the next remap builds the base" true (Algorithms.built b);
  trips "built base";
  match Algorithms.remap b u1 with
  | Resilience.Outcome.Ok r ->
      Alcotest.(check string) "remap after tripped remaps = cold map" (cold u1)
        (dump r);
      Alcotest.(check bool) "with its verdict" true (r.Algorithms.remap <> None)
  | _ -> Alcotest.fail "an unbudgeted remap did not map"

(* ------------------------------------------------------------------ *)
(* The fuzz loop's remap leg: gap-free and [-j]-invariant.             *)
(* ------------------------------------------------------------------ *)

let fuzz_params seed budget =
  {
    Check.Fuzz.default_params with
    Check.Fuzz.seed;
    budget;
    remap = true;
    eval_vectors = 64;
    sim_pairs = 2;
  }

let test_fuzz_remap_clean () =
  for seed = 1 to 5 do
    let r = Check.Fuzz.run (fuzz_params seed 4) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: no counterexample" seed)
      true
      (r.Check.Report.counterexample = None);
    match r.Check.Report.remap with
    | None -> Alcotest.fail "remap block missing from report"
    | Some m ->
        Alcotest.(check int)
          (Printf.sprintf "seed %d: mismatch-free" seed)
          0 m.Check.Report.r_mismatches;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: probes ran" seed)
          true
          (m.Check.Report.r_probes > 0)
  done

let test_fuzz_remap_jobs_invariant () =
  let report jobs =
    Parallel.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.set_jobs 1)
      (fun () ->
        Check.Report.to_json
          (Check.Report.strip_timing (Check.Fuzz.run (fuzz_params 2 8))))
  in
  Alcotest.(check string) "remap fuzz report identical at -j1 and -j4"
    (report 1) (report 4)

let suite =
  [
    Alcotest.test_case "fingerprint-self" `Quick test_fingerprint_self;
    Alcotest.test_case "fingerprint-identity" `Quick test_fingerprint_identity;
    Alcotest.test_case "seeded-edits-suite" `Slow test_seeded_edits_suite;
    Alcotest.test_case "noop-remap" `Quick test_noop_remap;
    Alcotest.test_case "shared-fanout-edit" `Quick test_shared_fanout_edit;
    Alcotest.test_case "dirty-cone-only" `Quick test_dirty_cone_only_invalidation;
    Alcotest.test_case "fresh-edits-shared-memo" `Quick
      test_fresh_edits_leave_shared_memo;
    Alcotest.test_case "thousand-edits-bounded" `Slow test_thousand_edits_bounded;
    Alcotest.test_case "accumulating-chain-warm" `Quick
      test_accumulating_chain_stays_warm;
    Alcotest.test_case "depth-model-remap" `Quick test_depth_model_remap;
    Alcotest.test_case "budget-trips" `Quick test_remap_budget;
    Alcotest.test_case "fuzz-remap-seeds-1-5" `Slow test_fuzz_remap_clean;
    Alcotest.test_case "fuzz-remap-jobs-invariant" `Slow
      test_fuzz_remap_jobs_invariant;
  ]
