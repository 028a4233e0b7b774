open Mapper

let circuits = [ "cm150"; "z4ml"; "cordic"; "frg1"; "count"; "9symml"; "c880"; "c432" ]
let flows = [ Algorithms.Domino_map; Algorithms.Rs_map; Algorithms.Soi_domino_map ]

let test_all_flows_equivalent () =
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      List.iter
        (fun flow ->
          let r = Algorithms.run flow net in
          Alcotest.(check bool)
            (name ^ "/" ^ Algorithms.flow_name flow ^ " equivalent")
            true
            (Domino.Circuit.equivalent_to r.Algorithms.circuit r.Algorithms.unate);
          match Domino.Circuit.validate r.Algorithms.circuit with
          | Ok () -> ()
          | Error e -> Alcotest.fail (name ^ ": " ^ e))
        flows)
    circuits

let test_unate_matches_source () =
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let u = Algorithms.prepare net in
      Alcotest.(check bool) (name ^ " unate faithful") true
        (Logic.Eval.equivalent net (Unate.Unetwork.to_network u)))
    circuits

let test_soi_beats_or_ties_bulk_on_discharges () =
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let bulk = (Algorithms.domino_map net).Algorithms.counts in
      let soi = (Algorithms.soi_domino_map net).Algorithms.counts in
      Alcotest.(check bool)
        (Printf.sprintf "%s: soi %d <= bulk %d discharges" name
           soi.Domino.Circuit.t_disch bulk.Domino.Circuit.t_disch)
        true
        (soi.Domino.Circuit.t_disch <= bulk.Domino.Circuit.t_disch);
      Alcotest.(check bool)
        (Printf.sprintf "%s: soi total %d <= bulk total %d" name
           soi.Domino.Circuit.t_total bulk.Domino.Circuit.t_total)
        true
        (soi.Domino.Circuit.t_total <= bulk.Domino.Circuit.t_total))
    circuits

let test_rs_never_worse_than_bulk () =
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let bulk = (Algorithms.domino_map net).Algorithms.counts in
      let rs = (Algorithms.rs_map net).Algorithms.counts in
      Alcotest.(check bool) (name ^ " rs <= bulk discharges") true
        (rs.Domino.Circuit.t_disch <= bulk.Domino.Circuit.t_disch);
      Alcotest.(check int) (name ^ " rs keeps logic count")
        bulk.Domino.Circuit.t_logic rs.Domino.Circuit.t_logic)
    circuits

let test_flow_names () =
  Alcotest.(check string) "bulk" "Domino_Map" (Algorithms.flow_name Algorithms.Domino_map);
  Alcotest.(check string) "rs" "RS_Map" (Algorithms.flow_name Algorithms.Rs_map);
  Alcotest.(check string) "soi" "SOI_Domino_Map"
    (Algorithms.flow_name Algorithms.Soi_domino_map)

let test_depth_cost_reduces_levels () =
  (* Pure depth-objective mapping can never use more levels than
     area-objective mapping. *)
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let area = (Algorithms.domino_map ~cost:Cost.area net).Algorithms.counts in
      let depth =
        (Algorithms.domino_map ~cost:Cost.depth_bulk net).Algorithms.counts
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: depth-mapped levels %d <= area-mapped %d" name
           depth.Domino.Circuit.levels area.Domino.Circuit.levels)
        true
        (depth.Domino.Circuit.levels <= area.Domino.Circuit.levels))
    [ "9symml"; "count"; "frg1"; "c880" ]

let test_clock_weighting_reduces_clock_load () =
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      let k1 = (Algorithms.soi_domino_map ~cost:(Cost.clock_weighted 1) net).Algorithms.counts in
      let k4 = (Algorithms.soi_domino_map ~cost:(Cost.clock_weighted 4) net).Algorithms.counts in
      Alcotest.(check bool) (name ^ " clock load not increased") true
        (k4.Domino.Circuit.t_clock <= k1.Domino.Circuit.t_clock))
    [ "9symml"; "c880"; "count" ]

(* Every flow's circuit against a reference built in two steps: an
   engine map that leaves the stacks as the DP ordered them, then per
   gate the stack reorder (RS_Map and SOI_Domino_Map only) and the
   grounded discharge analysis of the reordered PDN. *)
let test_finish_matches_reference () =
  let open Domino in
  List.iter
    (fun name ->
      let u = Algorithms.prepare (Gen.Suite.build_exn name) in
      List.iter
        (fun flow ->
          let options = Algorithms.options_of flow in
          let raw, _ = Engine.map { options with Engine.rearrange = false } u in
          let pass (g : Domino_gate.t) =
            let pdn =
              if flow = Algorithms.Domino_map then g.Domino_gate.pdn
              else Reorder.rearrange g.Domino_gate.pdn
            in
            {
              g with
              Domino_gate.pdn;
              discharge_points = Pbe_analysis.discharge_points ~grounded:true pdn;
            }
          in
          let reference =
            { raw with Circuit.gates = Array.map pass raw.Circuit.gates }
          in
          Alcotest.(check string)
            (name ^ "/" ^ Algorithms.flow_name flow)
            (Circuit.dump reference)
            (Circuit.dump (Algorithms.map flow u).Algorithms.circuit))
        flows)
    [ "cm150"; "z4ml"; "count"; "c432"; "c880"; "frg1" ]

(* The engine's defaults are the paper's flow, circuit for circuit. *)
let test_soi_flow_is_default () =
  Alcotest.(check bool) "options_of Soi_domino_map = default_options" true
    (Algorithms.options_of Algorithms.Soi_domino_map = Engine.default_options);
  List.iter
    (fun name ->
      let u = Algorithms.prepare (Gen.Suite.build_exn name) in
      Alcotest.(check string) name
        (Domino.Circuit.dump (fst (Engine.map Engine.default_options u)))
        (Domino.Circuit.dump
           (Algorithms.map Algorithms.Soi_domino_map u).Algorithms.circuit))
    [ "z4ml"; "c880" ]

let test_custom_wh () =
  let net = Gen.Suite.build_exn "z4ml" in
  let wide = (Algorithms.soi_domino_map ~w_max:8 ~h_max:12 net).Algorithms.counts in
  let narrow = (Algorithms.soi_domino_map ~w_max:2 ~h_max:2 net).Algorithms.counts in
  (* Bigger gates allowed -> at most as many gates. *)
  Alcotest.(check bool) "wide uses fewer gates" true
    (wide.Domino.Circuit.gate_count <= narrow.Domino.Circuit.gate_count)

let suite =
  [
    Alcotest.test_case "all flows functionally equivalent" `Slow test_all_flows_equivalent;
    Alcotest.test_case "unate faithful to source" `Quick test_unate_matches_source;
    Alcotest.test_case "soi <= bulk on discharges and total" `Quick
      test_soi_beats_or_ties_bulk_on_discharges;
    Alcotest.test_case "rs never worse than bulk" `Quick test_rs_never_worse_than_bulk;
    Alcotest.test_case "flow names" `Quick test_flow_names;
    Alcotest.test_case "depth cost reduces levels" `Quick test_depth_cost_reduces_levels;
    Alcotest.test_case "clock weighting reduces clock load" `Quick
      test_clock_weighting_reduces_clock_load;
    Alcotest.test_case "finish matches reorder then analysis" `Quick
      test_finish_matches_reference;
    Alcotest.test_case "soi flow is the default options" `Quick
      test_soi_flow_is_default;
    Alcotest.test_case "custom W/H" `Quick test_custom_wh;
  ]

(* -------- multi-objective sweep -------- *)

let test_multi_sweep () =
  let net = Gen.Suite.build_exn "c880" in
  let points = Mapper.Multi.sweep net in
  Alcotest.(check int) "portfolio size" 4 (List.length points);
  Alcotest.(check bool) "at least one efficient point" true
    (List.exists (fun p -> p.Mapper.Multi.efficient) points);
  (* The area point minimises total transistors across the portfolio. *)
  let area = List.find (fun p -> p.Mapper.Multi.label = "area") points in
  List.iter
    (fun p ->
      Alcotest.(check bool) "area minimal on t_total" true
        (area.Mapper.Multi.counts.Domino.Circuit.t_total
        <= p.Mapper.Multi.counts.Domino.Circuit.t_total))
    points;
  (* The depth point minimises levels across the portfolio. *)
  let depth = List.find (fun p -> p.Mapper.Multi.label = "depth") points in
  List.iter
    (fun p ->
      Alcotest.(check bool) "depth minimal on levels" true
        (depth.Mapper.Multi.counts.Domino.Circuit.levels
        <= p.Mapper.Multi.counts.Domino.Circuit.levels))
    points;
  let s = Mapper.Multi.render points in
  Alcotest.(check bool) "renders" true (String.length s > 50)

let suite = suite @ [ Alcotest.test_case "multi-objective sweep" `Quick test_multi_sweep ]
