(* Reproduction of the paper's Section III-B failure narrative on the
   Figure 2(a) gate (A + B + C) * D, using the switch-level simulator with
   the floating-body model:

   1. hold A = 1 with B = C = D = 0 for a few cycles -- node 1 charges
      high through A during every precharge, so the bodies of the off
      transistors B and C charge high;
   2. drop A and raise D -- node 1 is yanked low, the parasitic bipolar
      devices of B and C conduct, the dynamic node discharges, and the
      output reads 1 even though (A+B+C)*D = 0;
   3. add the paper's clocked p-discharge transistor on node 1
      (Figure 2(c)) and observe the failure disappear.

   Run with:  dune exec examples/pbe_demo.exe *)

open Domino

let pi i = Pdn.Leaf (Pdn.S_pi { input = i; positive = true })

let pdn = Pdn.Series (Pdn.Parallel (Pdn.Parallel (pi 0, pi 1), pi 2), pi 3)

let circuit ~discharge =
  {
    Circuit.source = "fig2a";
    input_names = [| "A"; "B"; "C"; "D" |];
    gates =
      [|
        {
          Domino_gate.id = 0;
          pdn;
          footed = true;
          discharge_points = (if discharge then Pdn.series_junctions pdn else []);
          level = 1;
        };
      |];
    outputs = [| ("out", Pdn.S_gate 0) |];
  }

let stimulus =
  [
    ("A=1 B=C=D=0 (charge node 1)", [| true; false; false; false |]);
    ("A=1 B=C=D=0 (bodies of B,C charging)", [| true; false; false; false |]);
    ("A=1 B=C=D=0 (bodies of B,C now high)", [| true; false; false; false |]);
    ("A=0 D=1    (node 1 pulled low!)", [| false; false; false; true |]);
  ]

let run label c =
  Printf.printf "%s\n" label;
  let r = Sim.Domino_sim.run c (List.map snd stimulus) in
  List.iteri
    (fun i cy ->
      let desc, _ = List.nth stimulus i in
      let value = snd cy.Sim.Domino_sim.outputs.(0) in
      Printf.printf "  cycle %d: %-40s out=%d%s%s\n" i desc
        (if value then 1 else 0)
        (if cy.Sim.Domino_sim.events <> [] then "  << PARASITIC BIPOLAR EVENT" else "")
        (if cy.Sim.Domino_sim.corrupted <> [] then "  << WRONG VALUE" else ""))
    r.Sim.Domino_sim.cycles;
  Printf.printf "  total events: %d, corrupted cycles: %d\n\n"
    r.Sim.Domino_sim.total_events r.Sim.Domino_sim.corrupted_cycles;
  r

let () =
  Printf.printf "Gate under test: (A + B + C) * D, PDN = %s\n\n" (Pdn.to_string pdn);
  let bad = run "--- Without discharge transistors (paper Fig. 2(a)) ---"
      (circuit ~discharge:false)
  in
  let good = run "--- With a p-discharge transistor on node 1 (paper Fig. 2(c)) ---"
      (circuit ~discharge:true)
  in
  assert (bad.Sim.Domino_sim.total_events > 0 && bad.Sim.Domino_sim.corrupted_cycles > 0);
  assert (good.Sim.Domino_sim.total_events = 0 && good.Sim.Domino_sim.corrupted_cycles = 0);
  (* The same protection falls out of the mapping algorithms automatically. *)
  print_endline "--- Full-flow check on a mapped benchmark (c880, 8-bit ALU) ---";
  let net = Gen.Suite.build_exn "c880" in
  let soi = Mapper.Algorithms.soi_domino_map net in
  let stripped = Domino.Circuit.strip_discharges soi.Mapper.Algorithms.circuit in
  Printf.printf "  SOI_Domino_Map result PBE-free: %b\n"
    (Sim.Domino_sim.pbe_free soi.Mapper.Algorithms.circuit);
  Printf.printf "  same netlist with discharge transistors removed: %b\n"
    (Sim.Domino_sim.pbe_free stripped)
