open Domino

let pi i = Pdn.Leaf (Pdn.S_pi { input = i; positive = true })

let same_function a b =
  (* Compare conduction over all assignments of the (few) distinct inputs. *)
  let inputs =
    Pdn.signals a
    |> List.filter_map (function Pdn.S_pi { input; _ } -> Some input | _ -> None)
    |> List.sort_uniq compare
  in
  let n = List.length inputs in
  let ok = ref true in
  for v = 0 to (1 lsl n) - 1 do
    let env = function
      | Pdn.S_pi { input; positive } ->
          let pos = ref 0 in
          List.iteri (fun k i -> if i = input then pos := k) inputs;
          let value = v land (1 lsl !pos) <> 0 in
          if positive then value else not value
      | Pdn.S_gate _ | Pdn.S_const _ -> false
    in
    if Pdn.eval env a <> Pdn.eval env b then ok := false
  done;
  !ok

let test_fig5_reorder () =
  (* (A*B + C) * E with the stack on top reorders to E on top. *)
  let stack = Pdn.Parallel (Pdn.Series (pi 0, pi 1), pi 2) in
  let bad = Pdn.Series (stack, pi 4) in
  let good = Reorder.rearrange bad in
  Alcotest.(check int) "discharges before" 2
    (Pbe_analysis.discharge_count ~grounded:true bad);
  Alcotest.(check int) "discharges after" 0
    (Pbe_analysis.discharge_count ~grounded:true good);
  Alcotest.(check bool) "same logic" true (same_function bad good);
  Alcotest.(check int) "same transistors" (Pdn.transistors bad) (Pdn.transistors good);
  Alcotest.(check int) "same width" (Pdn.width bad) (Pdn.width good);
  Alcotest.(check int) "same height" (Pdn.height bad) (Pdn.height good)

let test_fig2a_reorder () =
  (* (A+B+C)*D becomes D*(A+B+C): stack sinks to ground, no discharges. *)
  let stack = Pdn.Parallel (Pdn.Parallel (pi 0, pi 1), pi 2) in
  let bad = Pdn.Series (stack, pi 3) in
  let good = Reorder.rearrange bad in
  Alcotest.(check int) "no discharges after" 0
    (Pbe_analysis.discharge_count ~grounded:true good);
  Alcotest.(check bool) "same logic" true (same_function bad good)

let test_chain_picks_largest () =
  (* Two stacks in one chain: only one can be at the bottom; pick the one
     with more potential points ((A*B+C) beats (D+E)). *)
  let big = Pdn.Parallel (Pdn.Series (pi 0, pi 1), pi 2) in
  let small = Pdn.Parallel (pi 3, pi 4) in
  let chain = Pdn.Series (big, Pdn.Series (pi 5, small)) in
  let r = Reorder.rearrange chain in
  (* Best achievable: big at the bottom; small's junction committed. *)
  Alcotest.(check int) "committed" 1 (Pbe_analysis.discharge_count ~grounded:true r);
  Alcotest.(check bool) "same logic" true (same_function chain r)

let test_savings_nonnegative () =
  let cases =
    [
      Pdn.Series (Pdn.Parallel (pi 0, pi 1), Pdn.Parallel (pi 2, pi 3));
      Pdn.Series (pi 0, pi 1);
      Pdn.Parallel (pi 0, pi 1);
      Pdn.Series (Pdn.Series (Pdn.Parallel (pi 0, pi 1), pi 2), pi 3);
    ]
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) "savings >= 0" true (Reorder.savings ~grounded:true p >= 0))
    cases

let test_reorder_inside_parallel_branch () =
  (* Reordering must recurse into parallel branches. *)
  let branch = Pdn.Series (Pdn.Parallel (pi 0, pi 1), pi 2) in
  let p = Pdn.Parallel (branch, pi 3) in
  let r = Reorder.rearrange p in
  Alcotest.(check int) "branch fixed" 0
    (Pbe_analysis.discharge_count ~grounded:true r);
  Alcotest.(check bool) "same logic" true (same_function p r)

(* [rearrange] is not idempotent on ties (reorder.mli); reapplying it
   keeps the discharge count. *)
let test_reapply_keeps_discharges () =
  let stack = Pdn.Parallel (Pdn.Series (pi 0, pi 1), pi 2) in
  let p = Pdn.Series (stack, Pdn.Series (pi 3, pi 4)) in
  let once = Reorder.rearrange p in
  let twice = Reorder.rearrange once in
  Alcotest.(check int) "reapplying keeps the discharge count"
    (Pbe_analysis.discharge_count ~grounded:true once)
    (Pbe_analysis.discharge_count ~grounded:true twice)

let suite =
  [
    Alcotest.test_case "figure 5 reorder" `Quick test_fig5_reorder;
    Alcotest.test_case "figure 2(a) reorder" `Quick test_fig2a_reorder;
    Alcotest.test_case "largest stack sinks" `Quick test_chain_picks_largest;
    Alcotest.test_case "savings non-negative" `Quick test_savings_nonnegative;
    Alcotest.test_case "recurses into branches" `Quick test_reorder_inside_parallel_branch;
    Alcotest.test_case "reapplying keeps discharge count" `Quick
      test_reapply_keeps_discharges;
  ]
