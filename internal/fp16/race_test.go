//go:build race

package fp16

const raceBuild = true
