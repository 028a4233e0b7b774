(* Property-based tests (QCheck) over the core data structures and the
   full mapping pipeline. *)

open Domino

(* ---------------- generators ---------------- *)

let pdn_gen : Pdn.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    let* input = int_range 0 5 in
    let* positive = bool in
    return (Pdn.Leaf (Pdn.S_pi { input; positive }))
  in
  sized_size (int_range 1 24) @@ fix (fun self n ->
      if n <= 1 then leaf
      else
        let sub = self (n / 2) in
        oneof
          [
            leaf;
            (let* a = sub in
             let* b = sub in
             return (Pdn.Series (a, b)));
            (let* a = sub in
             let* b = sub in
             return (Pdn.Parallel (a, b)));
          ])

let pdn_print p = Pdn.to_string p

(* Small random networks via the seeded generator. *)
let net_of_seed seed =
  Gen.Random_logic.generate
    (Gen.Random_logic.default ~name:"prop" ~inputs:8 ~gates:40 ~outputs:4
       ~seed)

let seed_gen = QCheck2.Gen.int_range 0 10_000

(* ---------------- PDN / analysis properties ---------------- *)

let prop_analysis_partitions_junctions =
  QCheck2.Test.make ~name:"analysis: actual/contingent partition junctions"
    ~count:300 ~print:pdn_print pdn_gen (fun p ->
      let r = Pbe_analysis.analyze p in
      let junctions = Pdn.series_junctions p in
      let all = r.Pbe_analysis.actual @ r.Pbe_analysis.contingent in
      List.for_all (fun x -> List.mem x junctions) all
      && List.length (List.sort_uniq compare all) = List.length all)

let prop_grounded_le_ungrounded =
  QCheck2.Test.make ~name:"analysis: grounded needs <= ungrounded" ~count:300
    ~print:pdn_print pdn_gen (fun p ->
      Pbe_analysis.discharge_count ~grounded:true p
      <= Pbe_analysis.discharge_count ~grounded:false p)

let prop_ungrounded_counts_everything =
  QCheck2.Test.make ~name:"analysis: ungrounded = actual + contingent" ~count:300
    ~print:pdn_print pdn_gen (fun p ->
      let r = Pbe_analysis.analyze p in
      Pbe_analysis.discharge_count ~grounded:false p
      = List.length r.Pbe_analysis.actual + List.length r.Pbe_analysis.contingent)

(* Mapping's path-free walks against the reference classifier, on
   random PDNs and on their rearranged forms. *)
let prop_walks_match_analysis =
  QCheck2.Test.make ~name:"analysis: path-free walks match analyze"
    ~count:500 ~print:pdn_print pdn_gen (fun p ->
      List.for_all
        (fun q ->
          let r = Pbe_analysis.analyze q in
          let sorted = List.sort_uniq compare in
          Pbe_analysis.par_b q = r.Pbe_analysis.par_b
          && Pbe_analysis.p_dis q = List.length r.Pbe_analysis.contingent
          && Pbe_analysis.discharge_points ~grounded:true q
             = sorted r.Pbe_analysis.actual
          && Pbe_analysis.discharge_points ~grounded:false q
             = sorted (r.Pbe_analysis.actual @ r.Pbe_analysis.contingent))
        [ p; Reorder.rearrange p ])

(* [Reorder.rearrange] as it ranked factors through [analyze]; the
   scalar ranking must give the same tree. *)
let rec rearrange_by_analysis p =
  let rec series_factors = function
    | Pdn.Series (a, b) -> series_factors a @ series_factors b
    | t -> [ t ]
  in
  match p with
  | Pdn.Leaf _ -> p
  | Pdn.Parallel (a, b) ->
      Pdn.Parallel (rearrange_by_analysis a, rearrange_by_analysis b)
  | Pdn.Series _ ->
      let factors = List.map rearrange_by_analysis (series_factors p) in
      let saving f =
        let r = Pbe_analysis.analyze f in
        if r.Pbe_analysis.par_b then List.length r.Pbe_analysis.contingent + 1
        else 0
      in
      let best_idx = ref (-1) and best_saving = ref 0 in
      List.iteri
        (fun i f ->
          let s = saving f in
          if s > !best_saving then begin
            best_saving := s;
            best_idx := i
          end)
        factors;
      let ordered =
        if !best_idx < 0 then factors
        else
          List.filteri (fun i _ -> i <> !best_idx) factors
          @ [ List.nth factors !best_idx ]
      in
      let rec nest = function
        | [] -> assert false
        | [ f ] -> f
        | f :: rest -> Pdn.Series (f, nest rest)
      in
      nest ordered

let prop_reorder_matches_analysis =
  QCheck2.Test.make ~name:"reorder: scalar ranking matches analyze's"
    ~count:500 ~print:pdn_print pdn_gen (fun p ->
      Reorder.rearrange p = rearrange_by_analysis p)

let pdn_semantics_equal a b =
  (* compare conduction on all 2^6 assignments of inputs 0..5, both phases *)
  let ok = ref true in
  for v = 0 to 63 do
    let env = function
      | Pdn.S_pi { input; positive } ->
          let value = v land (1 lsl input) <> 0 in
          if positive then value else not value
      | Pdn.S_gate _ | Pdn.S_const _ -> false
    in
    if Pdn.eval env a <> Pdn.eval env b then ok := false
  done;
  !ok

let prop_reorder_preserves =
  QCheck2.Test.make ~name:"reorder: preserves function, size, footprint" ~count:300
    ~print:pdn_print pdn_gen (fun p ->
      let r = Reorder.rearrange p in
      pdn_semantics_equal p r
      && Pdn.transistors p = Pdn.transistors r
      && Pdn.width p = Pdn.width r
      && Pdn.height p = Pdn.height r)

let prop_reorder_never_hurts =
  QCheck2.Test.make ~name:"reorder: never increases grounded discharges" ~count:300
    ~print:pdn_print pdn_gen (fun p ->
      Reorder.savings ~grounded:true p >= 0)

let prop_eval64_matches_eval =
  QCheck2.Test.make ~name:"pdn: eval64 lanes match eval" ~count:100
    ~print:pdn_print pdn_gen (fun p ->
      let rng = Logic.Rng.create 1 in
      let words = Array.init 6 (fun _ -> Logic.Rng.next64 rng) in
      let env64 = function
        | Pdn.S_pi { input; positive } ->
            if positive then words.(input) else Int64.lognot words.(input)
        | Pdn.S_gate _ | Pdn.S_const _ -> 0L
      in
      let packed = Pdn.eval64 env64 p in
      let ok = ref true in
      for lane = 0 to 63 do
        let env = function
          | Pdn.S_pi { input; positive } ->
              let v =
                Int64.logand (Int64.shift_right_logical words.(input) lane) 1L = 1L
              in
              if positive then v else not v
          | Pdn.S_gate _ | Pdn.S_const _ -> false
        in
        let expect = Pdn.eval env p in
        let got = Int64.logand (Int64.shift_right_logical packed lane) 1L = 1L in
        if expect <> got then ok := false
      done;
      !ok)

(* ---------------- network-level properties ---------------- *)

let prop_strash_equivalent =
  QCheck2.Test.make ~name:"strash: preserves function" ~count:40
    ~print:string_of_int seed_gen (fun seed ->
      let n = net_of_seed seed in
      Logic.Eval.equivalent n (Logic.Strash.run n))

let prop_decompose_equivalent =
  QCheck2.Test.make ~name:"decompose: preserves function, yields AOI" ~count:40
    ~print:string_of_int seed_gen (fun seed ->
      let n = net_of_seed seed in
      let aoi = Unate.Decompose.to_aoi n in
      Unate.Decompose.is_aoi aoi && Logic.Eval.equivalent n aoi)

let prop_unate_equivalent =
  QCheck2.Test.make ~name:"unate: conversion preserves function" ~count:40
    ~print:string_of_int seed_gen (fun seed ->
      let n = net_of_seed seed in
      let u = Mapper.Algorithms.prepare n in
      Logic.Eval.equivalent n (Unate.Unetwork.to_network u))

let prop_blif_roundtrip =
  QCheck2.Test.make ~name:"blif: write/parse roundtrip" ~count:30
    ~print:string_of_int seed_gen (fun seed ->
      Blif.roundtrip_check (net_of_seed seed))

(* ---------------- end-to-end mapping properties ---------------- *)

let prop_mapping_equivalent =
  QCheck2.Test.make ~name:"mapping: all flows preserve function" ~count:25
    ~print:string_of_int seed_gen (fun seed ->
      let n = net_of_seed seed in
      List.for_all
        (fun flow ->
          let r = Mapper.Algorithms.run flow n in
          Domino.Circuit.equivalent_to ~vectors:1024 r.Mapper.Algorithms.circuit
            r.Mapper.Algorithms.unate
          && Domino.Circuit.validate r.Mapper.Algorithms.circuit = Ok ())
        [ Mapper.Algorithms.Domino_map; Mapper.Algorithms.Rs_map;
          Mapper.Algorithms.Soi_domino_map ])

let prop_soi_no_worse =
  QCheck2.Test.make ~name:"mapping: soi <= bulk on discharges and total" ~count:25
    ~print:string_of_int seed_gen (fun seed ->
      let n = net_of_seed seed in
      let bulk = (Mapper.Algorithms.domino_map n).Mapper.Algorithms.counts in
      let soi = (Mapper.Algorithms.soi_domino_map n).Mapper.Algorithms.counts in
      soi.Domino.Circuit.t_disch <= bulk.Domino.Circuit.t_disch
      && soi.Domino.Circuit.t_total <= bulk.Domino.Circuit.t_total)

let prop_mapped_circuits_pbe_free =
  QCheck2.Test.make ~name:"mapping: SOI circuits are PBE-free under simulation"
    ~count:15 ~print:string_of_int seed_gen (fun seed ->
      let n = net_of_seed seed in
      let r = Mapper.Algorithms.soi_domino_map n in
      Sim.Domino_sim.pbe_free ~cycles:96 ~seed r.Mapper.Algorithms.circuit)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_analysis_partitions_junctions;
      prop_grounded_le_ungrounded;
      prop_ungrounded_counts_everything;
      prop_walks_match_analysis;
      prop_reorder_matches_analysis;
      prop_reorder_preserves;
      prop_reorder_never_hurts;
      prop_eval64_matches_eval;
      prop_strash_equivalent;
      prop_decompose_equivalent;
      prop_unate_equivalent;
      prop_blif_roundtrip;
      prop_mapping_equivalent;
      prop_soi_no_worse;
      prop_mapped_circuits_pbe_free;
    ]
