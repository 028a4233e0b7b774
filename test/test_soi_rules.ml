open Mapper

let m = Cost.area
(* A tuple names no signal; the index only labels the figure's inputs. *)
let leaf _input = Soi_rules.leaf_pi m

let test_leaf_pi () =
  let s = leaf 0 in
  Alcotest.(check int) "w" 1 s.Soi_rules.w;
  Alcotest.(check int) "h" 1 s.Soi_rules.h;
  Alcotest.(check int) "cost" 1 s.Soi_rules.value.Cost.weighted;
  Alcotest.(check int) "p_dis" 0 s.Soi_rules.p_dis;
  Alcotest.(check bool) "par_b" false s.Soi_rules.par_b

let test_or_rule () =
  (* combine_or: p_dis adds, par_b := true, cost adds, no commitment. *)
  let s = Soi_rules.combine_or m (leaf 0) (leaf 1) in
  Alcotest.(check int) "w" 2 s.Soi_rules.w;
  Alcotest.(check int) "h" 1 s.Soi_rules.h;
  Alcotest.(check int) "cost" 2 s.Soi_rules.value.Cost.weighted;
  Alcotest.(check int) "p_dis" 0 s.Soi_rules.p_dis;
  Alcotest.(check bool) "par_b" true s.Soi_rules.par_b;
  Alcotest.(check int) "disch" 0 s.Soi_rules.disch

let test_and_series_junction_contingent () =
  (* A*B: the junction is only potential ("conditionally increment p_dis"). *)
  let s = Soi_rules.combine_and_soi m ~top:(leaf 0) ~bottom:(leaf 1) in
  Alcotest.(check int) "w" 1 s.Soi_rules.w;
  Alcotest.(check int) "h" 2 s.Soi_rules.h;
  Alcotest.(check int) "cost (no discharge)" 2 s.Soi_rules.value.Cost.weighted;
  Alcotest.(check int) "p_dis" 1 s.Soi_rules.p_dis;
  Alcotest.(check bool) "par_b" false s.Soi_rules.par_b

let fig4a () =
  (* A*B + C *)
  Soi_rules.combine_or m
    (Soi_rules.combine_and_soi m ~top:(leaf 0) ~bottom:(leaf 1))
    (leaf 2)

let test_fig4a_tuple () =
  let s = fig4a () in
  Alcotest.(check int) "cost" 3 s.Soi_rules.value.Cost.weighted;
  Alcotest.(check int) "p_dis" 1 s.Soi_rules.p_dis;
  Alcotest.(check bool) "par_b" true s.Soi_rules.par_b

let test_fig4b_tuple () =
  (* (A*B+C) on top of (D*E+F): discharge = p_dis(top) + 1 = 2. *)
  let top = fig4a () in
  let bottom =
    Soi_rules.combine_or m
      (Soi_rules.combine_and_soi m ~top:(leaf 3) ~bottom:(leaf 4))
      (leaf 5)
  in
  let s = Soi_rules.combine_and_soi m ~top ~bottom in
  Alcotest.(check int) "committed discharges" 2 s.Soi_rules.disch;
  Alcotest.(check int) "cost = 6 transistors + 2 discharges" 8
    s.Soi_rules.value.Cost.weighted;
  Alcotest.(check int) "p_dis carries bottom's point" 1 s.Soi_rules.p_dis;
  Alcotest.(check bool) "par_b from bottom" true s.Soi_rules.par_b

let test_fig5_orders () =
  (* Figure 5: (A*B + C) AND E.  Stack on top commits 2; stack on bottom
     commits none and carries 2 potential points. *)
  let stack = fig4a () in
  let e = leaf 4 in
  let stack_top = Soi_rules.combine_and_soi m ~top:stack ~bottom:e in
  Alcotest.(check int) "stack-top committed" 2 stack_top.Soi_rules.disch;
  Alcotest.(check int) "stack-top cost" 6 stack_top.Soi_rules.value.Cost.weighted;
  let stack_bottom = Soi_rules.combine_and_soi m ~top:e ~bottom:stack in
  Alcotest.(check int) "stack-bottom committed" 0 stack_bottom.Soi_rules.disch;
  Alcotest.(check int) "stack-bottom p_dis" 2 stack_bottom.Soi_rules.p_dis;
  Alcotest.(check int) "stack-bottom cost" 4 stack_bottom.Soi_rules.value.Cost.weighted;
  Alcotest.(check bool) "par_b" true stack_bottom.Soi_rules.par_b

let test_heuristic_order () =
  let stack = fig4a () in
  let e = leaf 4 in
  let top, bottom = Soi_rules.heuristic_and_order stack e in
  Alcotest.(check bool) "parallel goes to bottom" true
    (top == e && bottom == stack);
  let top2, bottom2 = Soi_rules.heuristic_and_order e stack in
  Alcotest.(check bool) "order independent of argument order" true
    (top2 == e && bottom2 == stack);
  (* Both parallel-bottomed: larger p_dis sinks. *)
  let small = Soi_rules.combine_or m (leaf 0) (leaf 1) in
  let _, b3 = Soi_rules.heuristic_and_order small stack in
  Alcotest.(check bool) "larger p_dis sinks" true (b3 == stack)

let test_bulk_and_ignores_pbe () =
  let stack = fig4a () in
  let s = Soi_rules.combine_and_bulk m ~top:stack ~bottom:(leaf 4) in
  Alcotest.(check int) "no committed discharges" 0 s.Soi_rules.disch;
  Alcotest.(check int) "plain cost" 4 s.Soi_rules.value.Cost.weighted

let test_compare_sols_tie_break () =
  let a = { (leaf 0) with Soi_rules.p_dis = 2 } in
  let b = { (leaf 0) with Soi_rules.p_dis = 1 } in
  Alcotest.(check bool) "p_dis breaks cost ties" true (Soi_rules.compare_sols m b a < 0);
  let footless = { (leaf 0) with Soi_rules.has_pi = false } in
  Alcotest.(check bool) "footless sorts last on full ties" true
    (Soi_rules.compare_sols m (leaf 0) footless < 0)

(* A derivation's series/parallel shape as a PDN.  The analysis reads
   the shape only, so every leaf gets the same literal. *)
let rec shape (s : Soi_rules.sol) =
  match s.Soi_rules.structure with
  | Soi_rules.Leaf | Soi_rules.Formed _ ->
      Domino.Pdn.Leaf (Domino.Pdn.S_pi { input = 0; positive = true })
  | Soi_rules.Parallel (a, b) -> Domino.Pdn.Parallel (shape a, shape b)
  | Soi_rules.Series (t, b) | Soi_rules.Series_flipped (t, b) ->
      Domino.Pdn.Series (shape t, shape b)

let test_structure_consistency_with_analysis () =
  (* The incremental bookkeeping must agree with the standalone analysis. *)
  let check s =
    let r = Domino.Pbe_analysis.analyze (shape s) in
    Alcotest.(check int) "p_dis matches analysis"
      (List.length r.Domino.Pbe_analysis.contingent)
      s.Soi_rules.p_dis;
    Alcotest.(check bool) "par_b matches analysis" r.Domino.Pbe_analysis.par_b
      s.Soi_rules.par_b;
    Alcotest.(check int) "disch matches analysis"
      (List.length r.Domino.Pbe_analysis.actual)
      s.Soi_rules.disch
  in
  check (fig4a ());
  check (Soi_rules.combine_and_soi m ~top:(fig4a ()) ~bottom:(leaf 4));
  check (Soi_rules.combine_and_soi m ~top:(leaf 4) ~bottom:(fig4a ()));
  check
    (Soi_rules.combine_and_soi m ~top:(fig4a ())
       ~bottom:(Soi_rules.combine_and_soi m ~top:(leaf 5) ~bottom:(fig4a ())))

let suite =
  [
    Alcotest.test_case "leaf tuple" `Quick test_leaf_pi;
    Alcotest.test_case "OR rule" `Quick test_or_rule;
    Alcotest.test_case "AND keeps junction contingent" `Quick
      test_and_series_junction_contingent;
    Alcotest.test_case "figure 4(a) tuple" `Quick test_fig4a_tuple;
    Alcotest.test_case "figure 4(b) tuple" `Quick test_fig4b_tuple;
    Alcotest.test_case "figure 5 both orders" `Quick test_fig5_orders;
    Alcotest.test_case "ordering heuristic" `Quick test_heuristic_order;
    Alcotest.test_case "bulk AND is PBE-blind" `Quick test_bulk_and_ignores_pbe;
    Alcotest.test_case "p_dis tie-break" `Quick test_compare_sols_tie_break;
    Alcotest.test_case "bookkeeping matches analysis" `Quick
      test_structure_consistency_with_analysis;
  ]
