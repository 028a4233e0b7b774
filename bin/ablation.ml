(* Quality ablations for the design choices called out in DESIGN.md §6.
   (Runtime ablations live in bench/main.ml; this driver compares result
   quality.)

   Usage:  ablation [circuit ...]        default: a representative set *)

let default_circuits = [ "cm150"; "z4ml"; "9symml"; "c880"; "c1355"; "count"; "k2"; "des" ]

let counts_of net ~options =
  let u = Mapper.Algorithms.prepare net in
  Domino.Circuit.counts (fst (Mapper.Engine.map options u))

let pf = Printf.printf

let ordering_ablation names =
  pf "--- AND ordering: try both orders vs par_b/p_dis heuristic only ---\n";
  pf "%-8s %14s %14s\n" "circuit" "both(Td/Tt)" "heuristic(Td/Tt)";
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let opt = Mapper.Engine.default_options in
      let a = counts_of net ~options:opt in
      let b = counts_of net ~options:{ opt with Mapper.Engine.both_orders = false } in
      pf "%-8s %8d/%5d %8d/%5d\n" name a.Domino.Circuit.t_disch a.Domino.Circuit.t_total
        b.Domino.Circuit.t_disch b.Domino.Circuit.t_total)
    names;
  pf "\n"

let grounding_ablation names =
  pf "--- Gate-bottom grounding: paper semantics vs pessimistic (pay p_dis) ---\n";
  pf "%-8s %14s %14s\n" "circuit" "grounded(Td/Tt)" "pessimistic(Td/Tt)";
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let opt = Mapper.Engine.default_options in
      let a = counts_of net ~options:opt in
      let b =
        counts_of net ~options:{ opt with Mapper.Engine.grounded_at_foot = false }
      in
      pf "%-8s %8d/%5d %8d/%5d\n" name a.Domino.Circuit.t_disch a.Domino.Circuit.t_total
        b.Domino.Circuit.t_disch b.Domino.Circuit.t_total)
    names;
  pf "\n"

let pareto_ablation names =
  pf "--- Tuple pruning: one tuple per {W,H} (paper) vs Pareto width 4 ---\n";
  pf "%-8s %14s %14s\n" "circuit" "width1(Td/Tt)" "width4(Td/Tt)";
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let opt = Mapper.Engine.default_options in
      let a = counts_of net ~options:opt in
      let b = counts_of net ~options:{ opt with Mapper.Engine.pareto_width = 4 } in
      pf "%-8s %8d/%5d %8d/%5d\n" name a.Domino.Circuit.t_disch a.Domino.Circuit.t_total
        b.Domino.Circuit.t_disch b.Domino.Circuit.t_total)
    names;
  pf "\n"

let unate_ablation names =
  pf "--- Unating: bubble-pushing vs greedy output-phase assignment [22] ---\n";
  pf "%-8s %10s %10s %10s %10s\n" "circuit" "bp-nodes" "pa-nodes" "bp-Tt" "pa-Tt";
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let pre = Unate.Decompose.to_aoi (Logic.Strash.run net) in
      let u_bp = Unate.Unetwork.of_network pre in
      let u_pa, asg = Unate.Phase.convert pre in
      let map u =
        Domino.Circuit.counts (fst (Mapper.Engine.map Mapper.Engine.default_options u))
      in
      let c_bp = map u_bp and c_pa = map u_pa in
      (* Phase-assigned outputs owe a 2-transistor boundary inverter. *)
      let pa_total =
        c_pa.Domino.Circuit.t_total + (2 * List.length asg.Unate.Phase.inverted_outputs)
      in
      pf "%-8s %10d %10d %10d %10d\n" name
        (Unate.Unetwork.node_count u_bp)
        (Unate.Unetwork.node_count u_pa)
        c_bp.Domino.Circuit.t_total pa_total)
    names;
  pf "\n"

let footprint_ablation names =
  pf "--- {W,H} limits (paper uses 5x8) ---\n";
  pf "%-8s %14s %14s %14s %14s\n" "circuit" "2x2(Tt/#G/L)" "3x4(Tt/#G/L)"
    "5x8(Tt/#G/L)" "8x12(Tt/#G/L)";
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let cell (w, h) =
        let opt = { Mapper.Engine.default_options with Mapper.Engine.w_max = w; h_max = h } in
        let c = counts_of net ~options:opt in
        Printf.sprintf "%d/%d/%d" c.Domino.Circuit.t_total c.Domino.Circuit.gate_count
          c.Domino.Circuit.levels
      in
      pf "%-8s %14s %14s %14s %14s\n" name (cell (2, 2)) (cell (3, 4)) (cell (5, 8))
        (cell (8, 12)))
    names;
  pf "\n"

let hysteresis_report names =
  pf "--- Hysteresis exposure (transistors above floating internal nodes) ---\n";
  pf "%-8s %22s %22s\n" "circuit" "soi exp/clampG/clampD" "stripped exp";
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let r = Mapper.Algorithms.soi_domino_map net in
      let m = Domino.Hysteresis.of_circuit r.Mapper.Algorithms.circuit in
      let stripped = Domino.Circuit.strip_discharges r.Mapper.Algorithms.circuit in
      let ms = Domino.Hysteresis.of_circuit stripped in
      pf "%-8s %8d/%6d/%6d %22d\n" name m.Domino.Hysteresis.exposed
        m.Domino.Hysteresis.clamped_ground m.Domino.Hysteresis.clamped_discharge
        ms.Domino.Hysteresis.exposed)
    names;
  pf "\n"

let alternatives_ablation names =
  pf "--- Avoided transformations: replication (3) and body contacts (2) ---\n";
  pf "%-8s %12s %12s %12s %12s\n" "circuit" "soi Tt" "split Tt" "Td saved" "contacts";
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let r = Mapper.Algorithms.soi_domino_map net in
      let base = Domino.Circuit.counts r.Mapper.Algorithms.circuit in
      let split = Domino.Alternatives.split_stacks r.Mapper.Algorithms.circuit in
      let sc = Domino.Circuit.counts split in
      let contacts = Domino.Alternatives.circuit_body_contacts r.Mapper.Algorithms.circuit in
      pf "%-8s %12d %12d %12d %12d\n" name base.Domino.Circuit.t_total
        sc.Domino.Circuit.t_total base.Domino.Circuit.t_disch contacts)
    names;
  pf "\n"

let timing_ablation names =
  pf "--- First-order critical delay per flow (normalised units) ---\n";
  pf "%-8s %10s %10s %10s\n" "circuit" "bulk" "rs" "soi";
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let delay flow =
        let r = Mapper.Algorithms.run flow net in
        (Domino.Timing.analyze r.Mapper.Algorithms.circuit).Domino.Timing.critical_delay
      in
      pf "%-8s %10.2f %10.2f %10.2f\n" name
        (delay Mapper.Algorithms.Domino_map)
        (delay Mapper.Algorithms.Rs_map)
        (delay Mapper.Algorithms.Soi_domino_map))
    names;
  pf "\n"

let seed_sensitivity () =
  pf "--- Seed sensitivity of the random stand-ins (Table II reduction %%) ---\n";
  pf "%-8s %10s %10s %10s\n" "circuit" "seed+0" "seed+1" "seed+2";
  List.iter
    (fun name ->
      let reduction net =
        let bulk = (Mapper.Algorithms.domino_map net).Mapper.Algorithms.counts in
        let soi = (Mapper.Algorithms.soi_domino_map net).Mapper.Algorithms.counts in
        if bulk.Domino.Circuit.t_disch = 0 then 0.0
        else
          100.0
          *. float_of_int (bulk.Domino.Circuit.t_disch - soi.Domino.Circuit.t_disch)
          /. float_of_int bulk.Domino.Circuit.t_disch
      in
      let cell k =
        match Gen.Suite.seed_variant name k with
        | Some net -> Printf.sprintf "%.1f" (reduction net)
        | None -> "-"
      in
      pf "%-8s %10s %10s %10s\n" name (cell 0) (cell 1) (cell 2))
    [ "frg1"; "b9"; "apex7"; "k2"; "c2670"; "c5315" ];
  pf "\n"

let () =
  let names =
    match List.tl (Array.to_list Sys.argv) with [] -> default_circuits | ns -> ns
  in
  ordering_ablation names;
  grounding_ablation names;
  pareto_ablation names;
  unate_ablation names;
  footprint_ablation names;
  alternatives_ablation names;
  timing_ablation names;
  seed_sensitivity ();
  hysteresis_report names
