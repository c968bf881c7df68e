module J = Geomix_obs.Jsonlite

type direction = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : direction;
  bound : float option;
}

type workload = { wname : string; why : string }

type t = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : workload list;
  end_to_end : metric list;
  per_layer : metric list;
}

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let all_chars ok s =
  let r = ref true in
  String.iter (fun c -> if not (ok c) then r := false) s;
  !r

let valid_name s =
  let len = String.length s in
  len >= 1 && len <= 64 && is_alnum s.[0]
  && all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let len = String.length s in
  len >= 1 && len <= 16
  && all_chars
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

(* A relative path that stays inside the repository. *)
let escapes s =
  (String.length s > 0 && s.[0] = '/') || List.mem ".." (String.split_on_char '/' s)

let valid_path s =
  let len = String.length s in
  len >= 1 && len <= 200
  && all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-' || c = '/') s
  && not (escapes s)

let max_bytes = 64 * 1024

let of_json json =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let fields what keys = function
    | J.Obj kv ->
      let names = List.map fst kv in
      if List.sort compare names <> List.sort compare keys then
        err "%s: keys must be exactly [%s], got [%s]" what
          (String.concat ", " keys) (String.concat ", " names);
      Some kv
    | _ ->
      err "%s: expected an object" what;
      None
  in
  let str what = function
    | Some (J.Str s) -> Some s
    | _ ->
      err "%s: expected a string" what;
      None
  in
  let list what lo hi = function
    | Some (J.Arr l) ->
      let n = List.length l in
      if n < lo || n > hi then err "%s: %d entries, must be %d to %d" what n lo hi;
      l
    | _ ->
      err "%s: expected a list" what;
      []
  in
  let top =
    fields "BENCHMARK.json"
      [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      json
    |> Option.value ~default:[]
  in
  let get k = List.assoc_opt k top in
  let command =
    list "command" 1 32 (get "command")
    |> List.filter_map (fun v ->
           match str "command entry" (Some v) with
           | Some s ->
             if String.length s > 200 then err "command entry longer than 200: %S" s;
             if escapes s then err "command entry leaves the repository: %S" s;
             Some s
           | None -> None)
  in
  let paths =
    list "paths" 1 16 (get "paths")
    |> List.filter_map (fun v ->
           match str "paths entry" (Some v) with
           | Some s ->
             if not (valid_path s) then err "invalid path %S" s;
             Some s
           | None -> None)
  in
  let run_seconds =
    match get "run_seconds" with
    | Some (J.Num f) when Float.is_integer f && f >= 1. && f <= 60. -> int_of_float f
    | _ ->
      err "run_seconds: must be a whole number from 1 to 60";
      0
  in
  let name what s = if not (valid_name s) then err "%s: invalid name %S" what s in
  let workloads =
    list "workloads" 2 8 (get "workloads")
    |> List.filter_map (fun v ->
           match fields "workload" [ "name"; "why" ] v with
           | None -> None
           | Some kv -> (
             match (str "workload name" (List.assoc_opt "name" kv),
                    str "workload why" (List.assoc_opt "why" kv)) with
             | Some wname, Some why ->
               name "workload" wname;
               if String.length why > 200 || String.contains why '\n' then
                 err "workload %s: why must be one line of at most 200 characters"
                   wname;
               Some { wname; why }
             | _ -> None))
  in
  let metrics what ~bounded lo hi =
    let keys = [ "name"; "unit"; "better" ] @ if bounded then [ "bound" ] else [] in
    list what lo hi (get what)
    |> List.filter_map (fun v ->
           match fields (what ^ " metric") keys v with
           | None -> None
           | Some kv -> (
             let better =
               match List.assoc_opt "better" kv with
               | Some (J.Str "lower") -> Some Lower
               | Some (J.Str "higher") -> Some Higher
               | _ ->
                 err "%s metric: better must be \"lower\" or \"higher\"" what;
                 None
             in
             let bound =
               if not bounded then Some None
               else
                 match List.assoc_opt "bound" kv with
                 | Some (J.Num b) when b >= 0. && b <= 0.25 -> Some (Some b)
                 | _ ->
                   err "%s metric: bound must be a number in [0, 0.25]" what;
                   None
             in
             match (str (what ^ " name") (List.assoc_opt "name" kv),
                    str (what ^ " unit") (List.assoc_opt "unit" kv), better, bound) with
             | Some n, Some u, Some better, Some bound ->
               name what n;
               if not (valid_unit u) then err "%s: invalid unit %S" n u;
               Some { name = n; unit_ = u; better; bound }
             | _ -> None))
  in
  let end_to_end = metrics "end_to_end" ~bounded:true 1 16 in
  let per_layer = metrics "per_layer" ~bounded:false 1 128 in
  (match List.find_opt (fun m -> m.name = "setup_s") end_to_end with
  | Some { unit_ = "s"; better = Lower; _ } -> ()
  | _ -> err "end_to_end must declare setup_s in unit s with better = lower");
  let names =
    List.map (fun w -> w.wname) workloads
    @ List.map (fun m -> m.name) (end_to_end @ per_layer)
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then err "name used more than once: %s" n;
      Hashtbl.replace seen n ())
    names;
  match !errs with
  | [] -> Ok { command; paths; run_seconds; workloads; end_to_end; per_layer }
  | es -> Error (List.rev es)

let of_string s =
  if String.length s > max_bytes then Error [ "BENCHMARK.json is larger than 64 KiB" ]
  else
    match J.of_string s with
    | Error e -> Error [ "BENCHMARK.json does not parse: " ^ e ]
    | Ok j -> of_json j

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error [ e ]
