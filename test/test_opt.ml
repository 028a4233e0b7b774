(* Unit tests for the exact-optimality subsystem (lib/opt):

   - the scalar tuple algebra mirrors Soi_rules combinator by
     combinator (checked through Backend.of_sol on random structures);
   - the static and completion lower bounds are admissible (never above
     a proven optimum);
   - a blown search budget degrades to a valid Bounded verdict, never a
     wrong "optimal" claim;
   - degenerate cones (constants, bare literals, single nodes, shared
     fanout) certify without noise, and nothing is silently skipped;
   - certificates are byte-identical across worker-pool sizes. *)

open Mapper

let soi_options ~w_max ~h_max =
  {
    Engine.default_options with
    Engine.w_max;
    h_max;
    style = Engine.Soi;
  }

let random_tree ~seed ~leaves =
  let rng = Logic.Rng.create seed in
  let b = Logic.Builder.create ~name:"tree" () in
  let ins = Logic.Builder.inputs b "x" leaves in
  let next = ref 0 in
  let rec build k =
    if k = 1 then begin
      let w = ins.(!next) in
      incr next;
      w
    end
    else begin
      let left = 1 + Logic.Rng.int rng (k - 1) in
      let l = build left in
      let r = build (k - left) in
      if Logic.Rng.bool rng then Logic.Builder.and2 b l r
      else Logic.Builder.or2 b l r
    end
  in
  Logic.Builder.output b "f" (build leaves);
  Logic.Builder.network b

(* Extract the cone instances of [net] under [options], together with
   the DP's cost key per root. *)
let instances_of ~options net =
  let u = Algorithms.prepare net in
  let _, _, gate_value = Engine.map_with_gates options u in
  let level_of m =
    match gate_value m with
    | Some v -> v.Cost.depth
    | None -> Alcotest.failf "boundary n%d formed no gate" m
  in
  let dp_of m =
    match gate_value m with
    | Some v -> Cost.key options.Engine.cost v
    | None -> Alcotest.failf "boundary n%d formed no gate" m
  in
  (Opt.Instance.extract u ~boundary_level:level_of, dp_of)

(* ---------------- tuple algebra mirrors Soi_rules ---------------- *)

(* Build a random series/parallel structure simultaneously as an engine
   tuple (Soi_rules.sol) and its scalar mirror, applying the paired
   combinators, and check Backend.of_sol commutes at every step. *)
let test_tuple_mirror () =
  List.iter
    (fun model ->
      List.iter
        (fun seed ->
          let rng = Logic.Rng.create seed in
          let check what (s : Soi_rules.sol) (t : Opt.Backend.tuple) =
            let p = Opt.Backend.of_sol model s in
            if p <> t then
              Alcotest.failf "%s (%s, seed %d): mirror diverged" what
                model.Cost.name seed;
            (s, t)
          in
          let leaf _ =
            check "leaf"
              (Soi_rules.leaf_pi model)
              (Opt.Backend.t_leaf_pi model)
          in
          let rec build k =
            if k = 1 then leaf (Logic.Rng.int rng 8)
            else begin
              let left = 1 + Logic.Rng.int rng (k - 1) in
              let s0, t0 = build left in
              let s1, t1 = build (k - left) in
              if Logic.Rng.bool rng then
                check "or"
                  (Soi_rules.combine_or model s0 s1)
                  (Opt.Backend.t_or t0 t1)
              else begin
                (* Both stack orders, and the paper's heuristic pick. *)
                let st, sb = Soi_rules.heuristic_and_order s0 s1 in
                let tt, tb = Opt.Backend.t_heuristic_order t0 t1 in
                ignore
                  (check "and(0/1)"
                     (Soi_rules.combine_and_soi model ~top:s0 ~bottom:s1)
                     (Opt.Backend.t_and_soi model ~top:t0 ~bottom:t1));
                ignore
                  (check "and(1/0)"
                     (Soi_rules.combine_and_soi model ~top:s1 ~bottom:s0)
                     (Opt.Backend.t_and_soi model ~top:t1 ~bottom:t0));
                ignore
                  (check "and(bulk)"
                     (Soi_rules.combine_and_bulk model ~top:s0 ~bottom:s1)
                     (Opt.Backend.t_and_bulk t0 t1));
                check "and(heuristic)"
                  (Soi_rules.combine_and_soi model ~top:st ~bottom:sb)
                  (Opt.Backend.t_and_soi model ~top:tt ~bottom:tb)
              end
            end
          in
          for leaves = 2 to 7 do
            ignore (build leaves)
          done)
        [ 11; 12; 13; 14; 15 ])
    [ Cost.area; Cost.clock_weighted 3; Cost.depth_soi; Cost.depth_bulk ]

let test_leaf_gate_mirror () =
  List.iter
    (fun model ->
      List.iter
        (fun level ->
          (* Shared-driver case: carried = zero at the gate's level, as
             the engine passes it for multi-fanout boundaries. *)
          let s =
            Soi_rules.leaf_gate model ~level
              ~carried:{ Cost.zero with Cost.depth = level }
              ~carried_disch:0
          in
          Alcotest.(check bool)
            (Printf.sprintf "gate leaf level %d (%s)" level model.Cost.name)
            true
            (Opt.Backend.of_sol model s = Opt.Backend.t_leaf_gate model ~level))
        [ 1; 2; 5 ])
    [ Cost.area; Cost.depth_soi ]

(* ---------------- lower bounds are admissible ---------------- *)

let test_static_lb_admissible () =
  let options = soi_options ~w_max:4 ~h_max:5 in
  List.iter
    (fun seed ->
      let insts, dp_of = instances_of ~options (random_tree ~seed ~leaves:7) in
      List.iter
        (fun (inst : Opt.Instance.t) ->
          let budget = Resilience.Budget.make ~max_tuples:2_000_000 () in
          (* No upper-bound seed: the completed search's answer is the
             unconditional optimum of the cone. *)
          let s = Opt.Bb.solve ~budget ~options ~ub:None inst in
          Alcotest.(check bool) "search completed" true s.Opt.Backend.proved;
          let best =
            match s.Opt.Backend.best with
            | Some b -> b
            | None -> Alcotest.fail "proved without a solution"
          in
          let lb = Opt.Instance.static_lb options.Engine.cost inst in
          if lb > best then
            Alcotest.failf "seed %d %s: static_lb %d above optimum %d" seed
              (Opt.Instance.describe inst)
              lb best;
          (* The DP's answer is achievable, so the optimum can't sit
             above it. *)
          if best > dp_of inst.Opt.Instance.root then
            Alcotest.failf "seed %d %s: optimum %d above the DP's %d" seed
              (Opt.Instance.describe inst)
              best
              (dp_of inst.Opt.Instance.root))
        insts)
    [ 21; 22; 23; 24; 25; 26 ]

(* ---------------- budget exhaustion stays honest ---------------- *)

let test_exhaustion_bounds () =
  let options = soi_options ~w_max:5 ~h_max:8 in
  let net = random_tree ~seed:31 ~leaves:9 in
  let insts, dp_of = instances_of ~options net in
  let inst = List.hd insts in
  let dp = dp_of inst.Opt.Instance.root in
  (* Reference: the true optimum under a completing budget. *)
  let full = Resilience.Budget.make ~max_tuples:2_000_000 () in
  let exact = Opt.Bb.solve ~budget:full ~options ~ub:(Some dp) inst in
  Alcotest.(check bool) "reference search completed" true
    exact.Opt.Backend.proved;
  let optimum = Option.get exact.Opt.Backend.best in
  List.iter
    (fun backend ->
      let tiny = Resilience.Budget.make ~max_tuples:3 () in
      let s =
        backend.Opt.Backend.solve ~budget:tiny ~options ~ub:(Some dp) inst
      in
      Alcotest.(check bool)
        (backend.Opt.Backend.name ^ ": tiny budget not proved")
        false s.Opt.Backend.proved;
      if s.Opt.Backend.lower > optimum then
        Alcotest.failf "%s: exhausted lower bound %d above the optimum %d"
          backend.Opt.Backend.name s.Opt.Backend.lower optimum)
    [ Opt.Bb.backend; Opt.Enum.backend ];
  (* Through the certifier the same cone becomes a Bounded verdict with
     a coherent bracket — never Proved, never a phantom Gap. *)
  let u = Algorithms.prepare net in
  let s = Opt.Certify.certify ~max_expansions:3 ~options u in
  Alcotest.(check int) "all cones bounded" s.Opt.Certify.cones
    s.Opt.Certify.bounded;
  List.iter
    (fun (c : Opt.Certify.cert) ->
      match c.Opt.Certify.status with
      | Opt.Certify.Bounded { dp; lower } ->
          Alcotest.(check bool) "lower <= dp" true (lower <= dp)
      | _ -> Alcotest.fail "expected Bounded")
    s.Opt.Certify.certs

(* ---------------- degenerate cones ---------------- *)

let test_trivial_outputs () =
  (* An output bound to a bare literal has no cone: it must be counted
     as trivial, not silently dropped and not crashed on. *)
  let b = Logic.Builder.create ~name:"wire" () in
  let x = Logic.Builder.input b "x" in
  let y = Logic.Builder.input b "y" in
  Logic.Builder.output b "f" x;
  Logic.Builder.output b "g" (Logic.Builder.and2 b x y);
  let u = Algorithms.prepare (Logic.Builder.network b) in
  let s = Opt.Certify.certify ~options:(soi_options ~w_max:4 ~h_max:4) u in
  Alcotest.(check int) "one real cone" 1 s.Opt.Certify.cones;
  Alcotest.(check int) "one trivial output" 1 s.Opt.Certify.trivial_outputs;
  Alcotest.(check int) "proved" 1 s.Opt.Certify.proved

let test_constant_output () =
  (* x AND ~x strashes to a constant output: no cone, one trivial
     output, and the certifier stays quiet. *)
  let b = Logic.Builder.create ~name:"const" () in
  let x = Logic.Builder.input b "x" in
  Logic.Builder.output b "f" (Logic.Builder.and2 b x (Logic.Builder.not_ b x));
  let u = Algorithms.prepare (Logic.Builder.network b) in
  let s = Opt.Certify.certify ~options:(soi_options ~w_max:4 ~h_max:4) u in
  Alcotest.(check int) "no cones" 0 s.Opt.Certify.cones;
  Alcotest.(check int) "one trivial output" 1 s.Opt.Certify.trivial_outputs

let test_shared_fanout_cone () =
  (* A shared AND below two consumers: the shared node is a boundary,
     its consumers' cones see it as an L_gate leaf, and everything
     still certifies (no gaps for bulk/area on this shape). *)
  let b = Logic.Builder.create ~name:"shared" () in
  let x = Logic.Builder.input b "x" in
  let y = Logic.Builder.input b "y" in
  let z = Logic.Builder.input b "z" in
  let shared = Logic.Builder.and2 b x y in
  Logic.Builder.output b "f" (Logic.Builder.or2 b shared z);
  Logic.Builder.output b "g" (Logic.Builder.and2 b shared z);
  let u = Algorithms.prepare (Logic.Builder.network b) in
  let options =
    { (soi_options ~w_max:2 ~h_max:2) with Engine.style = Engine.Bulk }
  in
  let s = Opt.Certify.certify ~options u in
  Alcotest.(check int) "three cones" 3 s.Opt.Certify.cones;
  Alcotest.(check int) "all proved" 3 s.Opt.Certify.proved;
  (* The consumers' cones must contain a boundary-gate leaf. *)
  let insts, _ = instances_of ~options (Logic.Builder.network b) in
  let has_gate_leaf (inst : Opt.Instance.t) =
    let rec walk = function
      | Opt.Instance.T_leaf (Opt.Instance.L_gate _) -> true
      | Opt.Instance.T_leaf Opt.Instance.L_pi -> false
      | Opt.Instance.T_node { sub0; sub1; _ } -> walk sub0 || walk sub1
    in
    walk inst.Opt.Instance.tree
  in
  Alcotest.(check int) "two cones lean on the shared gate" 2
    (List.length (List.filter has_gate_leaf insts))

let test_skipped_accounting () =
  (* One small cone, one cone over the size cap.  The skipped cone must
     show up in [skipped] and [cones] but never in [certified] — the
     header can then never read "everything proved" while work was
     skipped (the bug: skipped cones silently padded the certified
     total). *)
  let b = Logic.Builder.create ~name:"skip" () in
  let x = Logic.Builder.inputs b "x" 12 in
  let small = Logic.Builder.and2 b x.(0) x.(1) in
  Logic.Builder.output b "f" small;
  let big = ref x.(2) in
  for i = 3 to 11 do
    big :=
      if i mod 2 = 0 then Logic.Builder.and2 b !big x.(i)
      else Logic.Builder.or2 b !big x.(i)
  done;
  Logic.Builder.output b "g" !big;
  let u = Algorithms.prepare (Logic.Builder.network b) in
  let s =
    Opt.Certify.certify ~max_size:4
      ~options:(soi_options ~w_max:3 ~h_max:4)
      u
  in
  Alcotest.(check bool) "something was skipped" true (s.Opt.Certify.skipped > 0);
  Alcotest.(check int) "certified = proved + gaps + bounded"
    (s.Opt.Certify.proved + s.Opt.Certify.gaps + s.Opt.Certify.bounded)
    s.Opt.Certify.certified;
  Alcotest.(check int) "cones = certified + skipped"
    (s.Opt.Certify.certified + s.Opt.Certify.skipped)
    s.Opt.Certify.cones;
  Alcotest.(check bool) "proved < cones when cones were skipped" true
    (s.Opt.Certify.proved < s.Opt.Certify.cones);
  (* The skipped cone charges no search work, and its cert says so. *)
  List.iter
    (fun (c : Opt.Certify.cert) ->
      match c.Opt.Certify.status with
      | Opt.Certify.Skipped _ ->
          Alcotest.(check int) "skipped cone expansions" 0
            c.Opt.Certify.expansions
      | _ -> ())
    s.Opt.Certify.certs

let test_shape_dedup_expansions () =
  (* Two structurally identical cones: the second is a shape-dedup hit,
     shares the verdict, and must charge zero expansions instead of
     double-counting the original solve's. *)
  let b = Logic.Builder.create ~name:"twin" () in
  let x = Logic.Builder.inputs b "x" 6 in
  let cone i j k =
    Logic.Builder.and2 b (Logic.Builder.or2 b x.(i) x.(j)) x.(k)
  in
  Logic.Builder.output b "f" (cone 0 1 2);
  Logic.Builder.output b "g" (cone 3 4 5);
  let u = Algorithms.prepare (Logic.Builder.network b) in
  let s = Opt.Certify.certify ~options:(soi_options ~w_max:3 ~h_max:4) u in
  Alcotest.(check int) "two cones" 2 s.Opt.Certify.cones;
  Alcotest.(check int) "both certified" 2 s.Opt.Certify.certified;
  Alcotest.(check int) "both proved" 2 s.Opt.Certify.proved;
  (match s.Opt.Certify.certs with
  | [ a; b ] ->
      Alcotest.(check bool) "first solve did real work" true
        (a.Opt.Certify.expansions > 0);
      Alcotest.(check int) "dedup hit charges zero" 0
        b.Opt.Certify.expansions;
      Alcotest.(check string) "verdicts shared"
        (Opt.Certify.status_line a.Opt.Certify.status)
        (Opt.Certify.status_line b.Opt.Certify.status)
  | certs -> Alcotest.failf "expected 2 certs, got %d" (List.length certs));
  Alcotest.(check int) "summary expansions count the solve once"
    (match s.Opt.Certify.certs with
    | a :: _ -> a.Opt.Certify.expansions
    | [] -> -1)
    s.Opt.Certify.expansions

(* ---------------- determinism across worker pools ---------------- *)

let test_certify_jobs_deterministic () =
  let render jobs =
    Parallel.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.set_jobs 1)
      (fun () ->
        let u = Algorithms.prepare (Gen.Suite.build_exn "z4ml") in
        Opt.Certify.render
          (Opt.Certify.certify ~options:(soi_options ~w_max:5 ~h_max:8) u))
  in
  let r1 = render 1 in
  let r4 = render 4 in
  Alcotest.(check string) "renders byte-identical at -j1/-j4" r1 r4;
  Alcotest.(check bool) "render is non-trivial" true
    (String.length r1 > 0 && String.contains r1 '\n')

let suite =
  [
    Alcotest.test_case "tuple algebra mirrors soi_rules" `Quick
      test_tuple_mirror;
    Alcotest.test_case "gate-leaf mirror" `Quick test_leaf_gate_mirror;
    Alcotest.test_case "static lower bound admissible" `Quick
      test_static_lb_admissible;
    Alcotest.test_case "budget exhaustion stays honest" `Quick
      test_exhaustion_bounds;
    Alcotest.test_case "trivial outputs counted" `Quick test_trivial_outputs;
    Alcotest.test_case "constant output" `Quick test_constant_output;
    Alcotest.test_case "shared-fanout cones" `Quick test_shared_fanout_cone;
    Alcotest.test_case "skipped cones never pad the certified total" `Quick
      test_skipped_accounting;
    Alcotest.test_case "shape-dedup hits charge zero expansions" `Quick
      test_shape_dedup_expansions;
    Alcotest.test_case "certificates deterministic across jobs" `Quick
      test_certify_jobs_deterministic;
  ]
