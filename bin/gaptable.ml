(* The rewrite payoff table: exact-oracle optimality gaps and total
   SOI_Domino_Map cost on the paper suite, rewrite off vs on.

   For every benchmark the SOI flow runs twice — plain, and through the
   choice-aware rewriting portfolio (--rewrite=N) — and both mappings
   are certified per cone by the exact-optimality backend.  The table
   reports each side's proven gap count and whole-circuit cost, so a
   rewriting change that loses optimality or regresses a cost shows up
   as a nonzero column, and the wins are quantified benchmark by
   benchmark.  All rows are deterministic (expansion-budgeted
   certification, fixed seeds), so the output is diffable in CI.

   Usage:
     gaptable                 -- the paper's Table II benchmarks
     gaptable f51m count      -- selected suite/extra benchmarks
     gaptable --rewrite 4     -- portfolio width (default 8)
     gaptable --markdown      -- GitHub-flavoured Markdown output *)

open Mapper

let build_any name =
  match Gen.Suite.find name with
  | Some e -> e.Gen.Suite.build ()
  | None ->
      Printf.eprintf "gaptable: unknown benchmark %s\n" name;
      exit 2

type row = {
  r_name : string;
  r_cones : int;
  r_gaps_off : int;
  r_gaps_on : int;
  r_cost_off : int;
  r_cost_on : int;
  r_chosen : string;
}

let options = Algorithms.options_of Algorithms.Soi_domino_map

let cost_of (r : Algorithms.result) =
  Restructure.circuit_cost options.Engine.cost r.Algorithms.counts

let gaps_of (r : Algorithms.result) =
  let memo_salt =
    match r.Algorithms.rewrite with
    | Some i -> i.Restructure.salt
    | None -> 0
  in
  let s = Opt.Certify.certify ~memo_salt ~options r.Algorithms.mapped in
  (s.Opt.Certify.cones, s.Opt.Certify.gaps)

let row ~rewrite name =
  let u = Algorithms.prepare (build_any name) in
  let off = Algorithms.map Algorithms.Soi_domino_map u in
  let on = Algorithms.map ~rewrite Algorithms.Soi_domino_map u in
  let cones, gaps_off = gaps_of off in
  let _, gaps_on = gaps_of on in
  {
    r_name = name;
    r_cones = cones;
    r_gaps_off = gaps_off;
    r_gaps_on = gaps_on;
    r_cost_off = cost_of off;
    r_cost_on = cost_of on;
    r_chosen =
      (match on.Algorithms.rewrite with
      | Some { Restructure.chosen_rule = Some rule; chosen_site; _ } ->
          Printf.sprintf "%s@n%d" rule chosen_site
      | _ -> "original");
  }

let render_plain rows =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-10s %6s %9s %8s %9s %8s %7s  %s\n" "bench" "cones"
       "gaps-off" "gaps-on" "cost-off" "cost-on" "delta" "chosen");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-10s %6d %9d %8d %9d %8d %7d  %s\n" r.r_name
           r.r_cones r.r_gaps_off r.r_gaps_on r.r_cost_off r.r_cost_on
           (r.r_cost_on - r.r_cost_off)
           r.r_chosen))
    rows;
  Buffer.contents b

let render_markdown rows =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "| bench | cones | gaps off | gaps on | cost off | cost on | delta | \
     chosen |\n\
     |---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %d | %d | %d | %d | %d | %d | %s |\n" r.r_name
           r.r_cones r.r_gaps_off r.r_gaps_on r.r_cost_off r.r_cost_on
           (r.r_cost_on - r.r_cost_off)
           r.r_chosen))
    rows;
  Buffer.contents b

let () =
  let markdown = ref false in
  let rewrite = ref 8 in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--markdown" :: rest ->
        markdown := true;
        parse rest
    | "--rewrite" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            rewrite := v;
            parse rest
        | _ ->
            prerr_endline "gaptable: --rewrite needs a positive count";
            exit 2)
    | "--rewrite" :: [] ->
        prerr_endline "gaptable: --rewrite needs a count";
        exit 2
    | name :: rest ->
        names := name :: !names;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let names =
    match List.rev !names with [] -> Gen.Suite.table2_names | ns -> ns
  in
  let rows = List.map (row ~rewrite:!rewrite) names in
  print_string
    (if !markdown then render_markdown rows else render_plain rows);
  let regressions =
    List.filter
      (fun r -> r.r_gaps_on > r.r_gaps_off || r.r_cost_on > r.r_cost_off)
      rows
  in
  let total d = List.fold_left (fun a r -> a + d r) 0 rows in
  Printf.printf
    "total: gaps %d -> %d, cost %d -> %d over %d benchmarks\n"
    (total (fun r -> r.r_gaps_off))
    (total (fun r -> r.r_gaps_on))
    (total (fun r -> r.r_cost_off))
    (total (fun r -> r.r_cost_on))
    (List.length rows);
  if regressions <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf "gaptable: REGRESSION on %s (gaps %d->%d, cost %d->%d)\n"
          r.r_name r.r_gaps_off r.r_gaps_on r.r_cost_off r.r_cost_on)
      regressions;
    exit 1
  end
