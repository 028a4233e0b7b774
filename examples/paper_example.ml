(* Walkthrough of the paper's worked examples (Figures 3, 4 and 5).

   Run with:  dune exec examples/paper_example.exe *)

open Mapper

let m = Cost.area
(* A tuple names no signal; the index only labels the figure's inputs. *)
let leaf _input = Soi_rules.leaf_pi m

let show label (s : Soi_rules.sol) =
  Printf.printf "  %-28s {W=%d, H=%d, cost=%d}  p_dis=%d  par_b=%b  committed=%d\n"
    label s.Soi_rules.w s.Soi_rules.h s.Soi_rules.value.Cost.weighted
    s.Soi_rules.p_dis s.Soi_rules.par_b s.Soi_rules.disch

let () =
  (* ------------------------------------------------------------------ *)
  print_endline "Figure 3: mapping f = (a*b) + (c*d) with W_max = H_max = 4";
  let b = Logic.Builder.create ~name:"fig3" () in
  let a = Logic.Builder.input b "a" and b' = Logic.Builder.input b "b" in
  let c = Logic.Builder.input b "c" and d = Logic.Builder.input b "d" in
  Logic.Builder.output b "f"
    (Logic.Builder.or2 b (Logic.Builder.and2 b a b') (Logic.Builder.and2 b c d));
  let net = Logic.Builder.network b in
  let r = Algorithms.run ~w_max:4 ~h_max:4 Algorithms.Soi_domino_map net in
  let counts = r.Algorithms.counts in
  Printf.printf
    "  mapped to %d gate(s); T_total = %d (the paper's minimum-cost solution is 9:\n\
    \  4 PDN transistors + precharge + inverter + keeper + n-clock foot)\n"
    counts.Domino.Circuit.gate_count counts.Domino.Circuit.t_total;
  Array.iter
    (fun g -> Format.printf "  gate: %a@." Domino.Domino_gate.pp g)
    r.Algorithms.circuit.Domino.Circuit.gates;

  (* ------------------------------------------------------------------ *)
  print_endline "\nFigure 4: potential discharge points (p_dis / par_b bookkeeping)";
  let ab = Soi_rules.combine_and_soi m ~top:(leaf 0) ~bottom:(leaf 1) in
  show "A*B" ab;
  let fig4a = Soi_rules.combine_or m ab (leaf 2) in
  show "A*B + C (fig 4a)" fig4a;
  let def =
    Soi_rules.combine_or m
      (Soi_rules.combine_and_soi m ~top:(leaf 3) ~bottom:(leaf 4))
      (leaf 5)
  in
  let fig4b = Soi_rules.combine_and_soi m ~top:fig4a ~bottom:def in
  show "(A*B+C)*(D*E+F) (fig 4b)" fig4b;
  Printf.printf "  -> the junction under the top stack and its internal point are\n";
  Printf.printf "     committed (2 discharge transistors); the bottom stack's point\n";
  Printf.printf "     stays potential, vanishing if the gate bottom reaches ground.\n";

  (* ------------------------------------------------------------------ *)
  print_endline "\nFigure 5: switching transistor stacks";
  let e = leaf 4 in
  show "(A*B+C) over E" (Soi_rules.combine_and_soi m ~top:fig4a ~bottom:e);
  show "E over (A*B+C)" (Soi_rules.combine_and_soi m ~top:e ~bottom:fig4a);
  print_endline
    "  -> with the parallel stack at the bottom no discharge transistor is\n\
    \     committed; the mapper always tries both orders and keeps the cheaper.";

  (* ------------------------------------------------------------------ *)
  print_endline "\nStandalone structural analysis of the final PDN (fig 5, stack on top):";
  let pi i = Domino.Pdn.Leaf (Domino.Pdn.S_pi { input = i; positive = true }) in
  let stack = Domino.Pdn.Parallel (Domino.Pdn.Series (pi 0, pi 1), pi 2) in
  let bad = Domino.Pdn.Series (stack, pi 4) in
  Printf.printf "  %s needs %d discharge transistor(s) when grounded\n"
    (Domino.Pdn.to_string bad)
    (Domino.Pbe_analysis.discharge_count ~grounded:true bad);
  let good = Domino.Reorder.rearrange bad in
  Printf.printf "  after Rearrange_Stacks: %s needs %d\n"
    (Domino.Pdn.to_string good)
    (Domino.Pbe_analysis.discharge_count ~grounded:true good)
