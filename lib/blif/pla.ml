exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

type t = {
  inputs : string array;
  outputs : (string * Logic.Sop.t) array;
}

let parse_string text =
  let ni = ref (-1) and no = ref (-1) in
  let ilb = ref None and ob = ref None in
  let rows = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let tokens =
        String.split_on_char ' ' (String.trim line)
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun tok -> tok <> "")
      in
      match tokens with
      | [] -> ()
      | ".i" :: v :: _ -> ni := int_of_string v
      | ".o" :: v :: _ -> no := int_of_string v
      | ".ilb" :: names -> ilb := Some (Array.of_list names)
      | ".ob" :: names -> ob := Some (Array.of_list names)
      | ".p" :: _ | ".e" :: _ | ".end" :: _ -> ()
      | ".type" :: _ | ".phase" :: _ -> ()
      | [ inp; out ] when inp.[0] <> '.' ->
          if !ni < 0 || !no < 0 then fail lineno "cube before .i/.o";
          if String.length inp <> !ni then fail lineno "input part width mismatch";
          if String.length out <> !no then fail lineno "output part width mismatch";
          let cube =
            try Logic.Cube.of_string inp
            with Invalid_argument m -> fail lineno "%s" m
          in
          rows := (cube, out) :: !rows
      | tok :: _ when tok.[0] = '.' -> ()  (* unknown directives are skipped *)
      | _ -> fail lineno "unparseable line: %s" line)
    lines;
  if !ni < 0 || !no < 0 then fail 0 "missing .i or .o";
  let input_names =
    match !ilb with
    | Some names when Array.length names = !ni -> names
    | _ -> Array.init !ni (Printf.sprintf "x%d")
  in
  let output_names =
    match !ob with
    | Some names when Array.length names = !no -> names
    | _ -> Array.init !no (Printf.sprintf "z%d")
  in
  let rows = List.rev !rows in
  let outputs =
    Array.mapi
      (fun k nm ->
        ( nm,
          List.filter_map
            (fun (cube, out) -> if out.[k] = '1' then Some cube else None)
            rows ))
      output_names
  in
  { inputs = input_names; outputs }

let to_string p =
  let ni = Array.length p.inputs and no = Array.length p.outputs in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf ".i %d\n.o %d\n" ni no);
  Buffer.add_string buf
    (".ilb " ^ String.concat " " (Array.to_list p.inputs) ^ "\n");
  Buffer.add_string buf
    (".ob " ^ String.concat " " (Array.to_list (Array.map fst p.outputs)) ^ "\n");
  (* Merge identical cubes across outputs into one row. *)
  let tbl : (string, Bytes.t) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Array.iteri
    (fun k (_, cover) ->
      List.iter
        (fun cube ->
          let key = Logic.Cube.to_string cube in
          let row =
            match Hashtbl.find_opt tbl key with
            | Some r -> r
            | None ->
                let r = Bytes.make no '0' in
                Hashtbl.replace tbl key r;
                order := key :: !order;
                r
          in
          Bytes.set row k '1')
        cover)
    p.outputs;
  let rows = List.rev !order in
  Buffer.add_string buf (Printf.sprintf ".p %d\n" (List.length rows));
  List.iter
    (fun key ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n" key (Bytes.to_string (Hashtbl.find tbl key))))
    rows;
  Buffer.add_string buf ".e\n";
  Buffer.contents buf

let to_file p path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string p))

let to_network p =
  let b = Logic.Builder.create ~name:"pla" () in
  let ins = Array.map (fun nm -> Logic.Builder.input b nm) p.inputs in
  Array.iter
    (fun (nm, cover) ->
      Logic.Network.set_output (Logic.Builder.network b) nm
        (Logic.Sop.to_wire b ins cover))
    p.outputs;
  Logic.Builder.network b

let of_network n =
  let inputs = Logic.Network.inputs n in
  if Array.length inputs > 16 then
    invalid_arg "Pla.of_network: too many inputs for exhaustive enumeration";
  {
    inputs = Array.map (fun id -> Logic.Network.input_name n id) inputs;
    outputs =
      Array.map
        (fun (nm, _) -> (nm, Logic.Sop.of_network_output n nm))
        (Logic.Network.outputs n);
  }

let minimize p =
  let nvars = Array.length p.inputs in
  {
    p with
    outputs = Array.map (fun (nm, cover) -> (nm, Logic.Sop.minimize ~nvars cover)) p.outputs;
  }
