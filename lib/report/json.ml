type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoder                                                             *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Canonical float rendering: shortest form that round-trips, so the
   same value always encodes to the same bytes. Artifacts are all-int
   today; this keeps the door open without breaking canonicality. *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string ?(indent = true) v =
  let buf = Buffer.create 1024 in
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_to_string f)
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            go (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
    | Assoc [] -> Buffer.add_string buf "{}"
    | Assoc fields ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (k, item) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf (if indent then ": " else ":");
            go (depth + 1) item)
          fields;
        nl ();
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over a string                             *)
(* ------------------------------------------------------------------ *)

exception Parse of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, got %c" c c')
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("bad literal, expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> fail ("bad \\u escape " ^ h)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "truncated escape";
           let c = s.[!pos] in
           advance ();
           match c with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
               (* Decode to UTF-8 bytes; surrogate pairs supported. *)
               let cp = hex4 () in
               let cp =
                 if cp >= 0xD800 && cp <= 0xDBFF then begin
                   if
                     !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     if lo < 0xDC00 || lo > 0xDFFF then
                       fail "high surrogate not followed by a low surrogate";
                     0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
                   end
                   else fail "lone high surrogate"
                 end
                 else cp
               in
               if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
               else if cp < 0x800 then begin
                 Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                 Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
               end
               else if cp < 0x10000 then begin
                 Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                 Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                 Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
               end
               else begin
                 Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
                 Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
                 Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                 Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
               end
           | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
      | c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
    in
    if is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail ("bad number " ^ text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail ("bad number " ^ text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Assoc []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Assoc (fields [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          List (items [])
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "array"
  | Assoc _ -> "object"

let member k = function
  | Assoc fields -> (
      match List.assoc_opt k fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing member %S" k))
  | v -> Error (Printf.sprintf "expected object for member %S, got %s" k (type_name v))

let to_int = function
  | Int n -> Ok n
  | v -> Error ("expected int, got " ^ type_name v)

let to_bool = function
  | Bool b -> Ok b
  | v -> Error ("expected bool, got " ^ type_name v)

let to_str = function
  | String s -> Ok s
  | v -> Error ("expected string, got " ^ type_name v)

let to_list = function
  | List l -> Ok l
  | v -> Error ("expected array, got " ^ type_name v)

let to_assoc = function
  | Assoc a -> Ok a
  | v -> Error ("expected object, got " ^ type_name v)

let ( let* ) = Result.bind

let in_member k r =
  Result.map_error (fun e -> Printf.sprintf "%s: %s" k e) r

let mem_int k v =
  let* m = member k v in
  in_member k (to_int m)

let mem_str k v =
  let* m = member k v in
  in_member k (to_str m)

let mem_list k v =
  let* m = member k v in
  in_member k (to_list m)
